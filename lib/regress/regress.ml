type metrics = {
  wall_s : float;
  retired : int;
  tlb_hit_rate : float option;
  chain_hit_rate : float option;
  ic_hit_rate : float option;
  events_dropped : float option;
}

(* Hit rates may drop by at most [rate_abs]; baselines under [min_wall]
   seconds skip the wall check (sub-second experiments are all noise). *)
let rate_abs = 0.02
let min_wall = 0.5

(* Minimal JSON reader for the bench stats format: objects, arrays, strings,
   numbers, booleans, null. Hand-rolled like the Obs codec — the environment
   has no JSON library — but generic over the subset, so baselines written
   by future bench versions (extra fields) still load. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad of int

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad !pos) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise (Bad !pos);
    advance ()
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else raise (Bad !pos)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | _ -> raise (Bad !pos));
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then raise (Bad !pos);
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> raise (Bad start)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Jobj [])
        else
          let rec members acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                skip_ws ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> raise (Bad !pos)
          in
          Jobj (members [])
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Jarr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> raise (Bad !pos)
          in
          Jarr (elements [])
    | '"' -> Jstr (string_lit ())
    | 't' -> lit "true" (Jbool true)
    | 'f' -> lit "false" (Jbool false)
    | 'n' -> lit "null" Jnull
    | _ -> Jnum (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad !pos);
  v

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let member k = function
  | Jobj fields -> List.assoc_opt k fields
  | _ -> None

let num_field path name k o =
  match member k o with
  | Some (Jnum f) -> f
  | Some _ | None ->
      failwith
        (Printf.sprintf "%s: experiment %s: missing numeric field %S" path name k)

(* Optional numeric field: absent or null means the stats file (current or
   baseline) legitimately has nothing to say — e.g. baseline-only rows
   (table1/table3) omit the engine rates entirely — so the comparison for
   that metric is skipped rather than failed. A present field of the wrong
   type is still a malformed file. *)
let num_field_opt path name k o =
  match member k o with
  | Some (Jnum f) -> Some f
  | Some Jnull | None -> None
  | Some _ ->
      failwith
        (Printf.sprintf "%s: experiment %s: non-numeric field %S" path name k)

let load_baseline path =
  let j =
    match parse_json (read_all path) with
    | j -> j
    | exception Bad at -> failwith (Printf.sprintf "%s: malformed JSON at byte %d" path at)
  in
  let exps =
    match member "experiments" j with
    | Some (Jarr l) -> l
    | _ -> failwith (Printf.sprintf "%s: no \"experiments\" array" path)
  in
  List.map
    (fun o ->
      let name =
        match member "name" o with
        | Some (Jstr s) -> s
        | _ -> failwith (Printf.sprintf "%s: experiment without a name" path)
      in
      ( name,
        {
          wall_s = num_field path name "wall_s" o;
          retired = int_of_float (num_field path name "retired" o);
          tlb_hit_rate = num_field_opt path name "tlb_hit_rate" o;
          chain_hit_rate = num_field_opt path name "chain_hit_rate" o;
          ic_hit_rate = num_field_opt path name "ic_hit_rate" o;
          events_dropped = num_field_opt path name "events_dropped" o;
        } ))
    exps

let compare_run ?(wall_tol = 0.25) ~baseline ~current () =
  let fails = ref [] in
  let fail name fmt = Printf.ksprintf (fun msg -> fails := (name, msg) :: !fails) fmt in
  let rate name what base cur =
    match (base, cur) with
    | Some b, Some c when b > 0.0 && c < b -. rate_abs ->
        fail name "%s hit rate %.4f below baseline %.4f - %.4f" what c b rate_abs
    | _ -> ()
  in
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name baseline with
      | None -> ()
      | Some base ->
          (if base.wall_s >= min_wall then
             let limit = base.wall_s *. (1.0 +. wall_tol) in
             if cur.wall_s > limit then
               fail name "wall time %.3fs exceeds baseline %.3fs +%.0f%% (limit %.3fs)"
                 cur.wall_s base.wall_s (100.0 *. wall_tol) limit);
          if base.retired > 0 && cur.retired <> base.retired then
            fail name "retired %d differs from baseline %d by %d" cur.retired
              base.retired
              (abs (cur.retired - base.retired));
          rate name "tlb" base.tlb_hit_rate cur.tlb_hit_rate;
          rate name "chain" base.chain_hit_rate cur.chain_hit_rate;
          rate name "ic" base.ic_hit_rate cur.ic_hit_rate;
          (* dropped observability events may never increase over the
             baseline: silent loss is exactly what the field exists to
             surface *)
          match (base.events_dropped, cur.events_dropped) with
          | Some b, Some c when c > b ->
              fail name "events dropped %.0f exceeds baseline %.0f" c b
          | _ -> ())
    current;
  List.rev !fails

let report = function
  | [] -> "regression gate: no regressions against baseline\n"
  | fails ->
      String.concat ""
        (List.map
           (fun (name, msg) -> Printf.sprintf "REGRESSION %s: %s\n" name msg)
           fails)
