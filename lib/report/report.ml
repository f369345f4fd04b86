(* All output goes through [out] so a report can be rendered to a file
   (CLI --profile) as well as to stdout. Process global, owned by the main
   domain: the bench prints only after joining its worker domains (cells
   return values, never print), and the CLI renders on its one domain, so
   [with_output] never races a printer. *)
let out = ref stdout

let with_output oc f =
  let prev = !out in
  out := oc;
  Fun.protect ~finally:(fun () -> out := prev) f

let printf fmt = Printf.fprintf !out fmt

let heading title =
  let bar = String.make (String.length title) '=' in
  printf "\n%s\n%s\n" title bar

let note s = printf "  %s\n" s

(* Numeric cells are right-aligned within their column so digit counts line
   up even when a count is wider than the column's header — hot-block tables
   routinely carry 10+ digit retirement counts under a short header. *)
let numeric cell =
  cell <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.') cell

let print_aligned rows =
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell ->
            let w = String.length cell in
            match List.nth_opt acc i with Some w' -> max w w' | None -> w)
          row
        @
        (* keep the widths of trailing columns absent from this row *)
        let n = List.length row in
        List.filteri (fun i _ -> i >= n) acc)
      [] rows
  in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          let w = try List.nth widths i with _ -> String.length cell in
          let pad = String.make (max 0 (w - String.length cell)) ' ' in
          if numeric cell then printf "%s%s  " pad cell
          else printf "%s%s  " cell pad)
        row;
      printf "\n")
    rows

let table ~title ~header ~rows =
  heading title;
  print_aligned (header :: List.map (fun r -> r) rows)

let histogram ~title ~rows =
  heading title;
  let peak = List.fold_left (fun acc (_, n) -> max acc n) 0 rows in
  let bar n =
    if peak = 0 then ""
    else String.make (if n = 0 then 0 else max 1 (n * 40 / peak)) '#'
  in
  print_aligned
    (List.map (fun (label, n) -> [ label; string_of_int n; bar n ]) rows)

let series ~title ~xlabel ~xs ~lines =
  heading title;
  let header = xlabel :: List.map fst lines in
  let rows =
    List.mapi
      (fun i x -> x :: List.map (fun (_, ys) -> Printf.sprintf "%.3f" (List.nth ys i)) lines)
      xs
  in
  print_aligned (header :: rows)
