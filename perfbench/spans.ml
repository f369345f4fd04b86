(* In-memory spans recorded by the traced run around its calls into each
   layer, written out once the run ends. A span's layer is its name up to
   the first '.', so [analysis.cfg] counts toward [analysis]. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a request's root span *)
  req : int;  (** spans of one request share this id *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let add t ~parent ~req ~name t0 t1 =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; req; name; t0; t1 } :: t.spans;
  id

let spans t = List.rev t.spans

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0., None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of its interval
   that its children cover. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) spans;
  List.map
    (fun s ->
      (s, (s.t1 -. s.t0) -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id)))
    spans

(* Self time summed per layer, root spans excluded: a root's self time is
   the gap its layers do not explain. *)
let layer_self spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if s.parent >= 0 then
        let l = layer s.name in
        Hashtbl.replace tbl l (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    (self_times spans);
  tbl

let roots spans = List.filter (fun s -> s.parent < 0) spans

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.parent s.req s.name (s.t0 *. 1e6) (s.t1 *. 1e6))
    spans;
  close_out oc
