(* Addresses are cut into segments wherever two neighbours lie more than
   [max_gap] bytes apart (or at an odd distance); each segment owns one
   slot per halfword of a shared table. Every address lies in a code
   section, so a segment spans at most its section plus one gap: the table
   is about the size of the code in halfwords, and usually one segment per
   section. *)

type t = {
  seg_lo : int array;  (* first address of each segment *)
  seg_hi : int array;  (* last address of each segment *)
  seg_at : int array;  (* the segment's first slot in [slot] *)
  slot : int array;  (* position, or -1 *)
}

let max_gap = 4096

let of_sorted addrs =
  let n = Array.length addrs in
  let cut k =
    let d = addrs.(k) - addrs.(k - 1) in
    d > max_gap || d land 1 <> 0
  in
  let nseg = ref (if n = 0 then 0 else 1) in
  for k = 1 to n - 1 do
    if cut k then incr nseg
  done;
  let seg_lo = Array.make !nseg 0
  and seg_hi = Array.make !nseg 0
  and seg_at = Array.make !nseg 0 in
  let s = ref (-1) and slots = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || cut k then begin
      if !s >= 0 then slots := !slots + ((seg_hi.(!s) - seg_lo.(!s)) / 2) + 1;
      incr s;
      seg_lo.(!s) <- addrs.(k);
      seg_at.(!s) <- !slots
    end;
    seg_hi.(!s) <- addrs.(k)
  done;
  if !s >= 0 then slots := !slots + ((seg_hi.(!s) - seg_lo.(!s)) / 2) + 1;
  let slot = Array.make !slots (-1) in
  let s = ref (-1) in
  for k = 0 to n - 1 do
    if k = 0 || cut k then incr s;
    slot.(seg_at.(!s) + ((addrs.(k) - seg_lo.(!s)) / 2)) <- k
  done;
  { seg_lo; seg_hi; seg_at; slot }

let find t addr =
  (* the last segment starting at or below [addr] *)
  let rec search lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if t.seg_lo.(mid) <= addr then search (mid + 1) hi else search lo mid
  in
  let s = search 0 (Array.length t.seg_lo) in
  if s < 0 || addr > t.seg_hi.(s) then -1
  else
    let off = addr - t.seg_lo.(s) in
    if off land 1 <> 0 then -1 else t.slot.(t.seg_at.(s) + (off / 2))
