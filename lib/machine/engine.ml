type t = Step | Untiered of { record : bool } | Tiered of { record : bool }

let default = Untiered { record = false }

let record = function
  | Step -> false
  | Untiered { record } | Tiered { record } -> record

let tag = function
  | Step -> "step"
  | Untiered _ -> "untiered"
  | Tiered _ -> "tiered"
