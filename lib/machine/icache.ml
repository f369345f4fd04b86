type geometry = { sets : int; line : int }

let default_geometry = { sets = 512; line = 64 }

type t = {
  sets : int;
  line : int;
  tags : int array;  (* -1 = invalid *)
  mutable misses : int;
  mutable accesses : int;
  mutable streak : int;  (* consecutive misses, for burst events *)
}

let pow2 n = n > 0 && n land (n - 1) = 0

(* A run of at least this many back-to-back misses is reported as one
   [Icache_burst] event when it ends — bursts, not individual misses, are
   what a trampoline-split working set produces. *)
let burst_threshold = 8

let create ({ sets; line } : geometry) =
  if not (pow2 sets && pow2 line) then
    invalid_arg "Icache.create: sets and line must be powers of two";
  { sets; line; tags = Array.make sets (-1); misses = 0; accesses = 0;
    streak = 0 }

let access t addr =
  t.accesses <- t.accesses + 1;
  let lineno = addr / t.line in
  let set = lineno land (t.sets - 1) in
  if t.tags.(set) = lineno then begin
    if t.streak >= burst_threshold && !Obs.enabled then
      Obs.emit (Obs.Icache_burst { addr; misses = t.streak });
    t.streak <- 0;
    true
  end
  else begin
    t.tags.(set) <- lineno;
    t.misses <- t.misses + 1;
    t.streak <- t.streak + 1;
    false
  end

let geometry (t : t) = { sets = t.sets; line = t.line }
let misses t = t.misses
let accesses t = t.accesses

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.streak <- 0
