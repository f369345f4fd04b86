(* Order statistics for the benchmark's reports. *)

(* Nearest-rank percentile: the [ceil (q * n)]-th smallest sample, with [q]
   given in per-mille so the rank is exact integer arithmetic. *)
let rank ~n ~permille = max 1 (((permille * n) + 999) / 1000)

(* Samples strictly above the reported percentile. *)
let beyond ~n ~permille = n - rank ~n ~permille

(* A percentile is reported only when at least this many samples lie
   beyond it; fewer would make the tail one or two unlucky requests. *)
let min_beyond = 10

let qualifies ~n ~permille = beyond ~n ~permille >= min_beyond

(* The highest of the usual tail percentiles that qualifies for [n]
   samples, if any. *)
let highest_tail n =
  List.fold_left
    (fun acc p -> if qualifies ~n ~permille:p then Some p else acc)
    None [ 500; 900; 990; 999 ]

let percentile samples ~permille =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.(rank ~n:(Array.length a) ~permille - 1)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let ratio num den = if den = 0. then 0. else num /. den
