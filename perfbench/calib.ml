(* Host speed. On a shared VM the same code runs 20-40% faster or slower
   from one minute to the next, so raw times from runs minutes apart
   spread wider than any useful regression bound. The benchmark therefore
   times a fixed calibration kernel next to the work it measures and
   scales every time by [reference_s / kernel time]: times are reported
   as they would read on a host that runs the kernel in [reference_s],
   its median on a 2-vCPU Xeon VM with OCaml 5.1.1. The kernel uses none
   of the program's code (hash table, sort, list traffic through the
   OCaml runtime), so a change to the program moves the scaled times
   exactly as it moves the raw ones. This suits work on one domain;
   serve-mix, whose two worker domains are bound more by their shared
   synchronisation than by host speed, spreads wider when scaled and is
   reported raw. *)

let reference_s = 0.016

let kernel () =
  let n = 20_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to n do
    Hashtbl.replace h ((i * 7919) land 0xfffff) (i, [ i ])
  done;
  let a = Array.init n (fun i -> (i * 2654435761) land 0xffffff) in
  Array.sort compare a;
  let m = ref 0 in
  Hashtbl.iter (fun k (v, _) -> m := !m + k + v) h;
  let l = List.init n Fun.id |> List.map (fun x -> x * 3) |> List.filter (fun x -> x land 1 = 0) in
  ignore (Sys.opaque_identity (!m + List.length l + a.(0)))

(* Calibration points [(time, kernel seconds)], newest first. One kernel
   run is itself noisy, so a span of work is scaled by the median over the
   points within [window] seconds of it, and at least the points just
   before and just after it. *)
type t = { mutable points : (float * float) list }

let window = 1.5
let create () = { points = [] }

let mark t =
  let t0 = Unix.gettimeofday () in
  kernel ();
  let t1 = Unix.gettimeofday () in
  t.points <- (t1, t1 -. t0) :: t.points

let since_last t = match t.points with (at, _) :: _ -> Unix.gettimeofday () -. at | [] -> infinity

(* The factor that scales a time measured over [t0, t1]. *)
let factor t ~t0 ~t1 =
  let before = List.find_opt (fun (at, _) -> at <= t0) t.points in
  let after = List.fold_left (fun acc (at, k) -> if at >= t1 then Some (at, k) else acc) None t.points in
  let near = List.filter (fun (at, _) -> at >= t0 -. window && at <= t1 +. window) t.points in
  match List.sort_uniq compare (List.filter_map Fun.id [ before; after ] @ near) with
  | [] -> 1.
  | points -> reference_s /. Stats.median (List.map snd points)

let kernel_times t = List.map snd t.points
