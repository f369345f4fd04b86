type t = Step | Translated of { record : bool }

let default = Translated { record = false }

let record = function Step -> false | Translated { record } -> record

let tag = function Step -> "step" | Translated _ -> "translated"
