type t =
  | Step
  | Block of { record : bool }
  | Super of { ir : bool; tiered : bool; ic : bool; record : bool }

let default = Super { ir = true; tiered = false; ic = false; record = false }

let record = function
  | Step -> false
  | Block { record } | Super { record; _ } -> record

let tag = function
  | Step -> "step"
  | Block _ -> "block"
  | Super { ir; tiered; ic; record = _ } ->
      Printf.sprintf "super;ir=%b;tier=%b;ic=%b" ir tiered ic
