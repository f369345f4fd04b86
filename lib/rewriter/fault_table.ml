type t = { name : string; tbl : (int, int) Hashtbl.t }

let create ?(name = "fault") () = { name; tbl = Hashtbl.create 256 }

let add t ~key ~redirect =
  if Hashtbl.mem t.tbl key then
    invalid_arg (Printf.sprintf "Fault_table.add: duplicate key 0x%x" key);
  if !Obs.enabled then Obs.emit (Obs.Table_add { key; redirect; table = t.name });
  Hashtbl.replace t.tbl key redirect

let copy t = { t with tbl = Hashtbl.copy t.tbl }
let find t key = Hashtbl.find_opt t.tbl key
let count t = Hashtbl.length t.tbl
let iter t f = Hashtbl.iter f t.tbl

let merge_into ~src ~dst =
  Hashtbl.iter (fun k v -> Hashtbl.replace dst.tbl k v) src.tbl
