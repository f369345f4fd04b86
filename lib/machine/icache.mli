(** A direct-mapped instruction-cache model.

    The paper's residual CHBP overhead on real hardware is partly
    microarchitectural: trampolines split a hot region between the original
    text and a far target section, doubling its instruction-cache footprint.
    The simulator's default cost model charges nothing for that; enabling
    this model (a machine created with [Machine.create ?icache]) makes it
    measurable. The default geometry is 512 sets of one 64-byte line
    (32 KiB), roughly an in-order core's L1i. *)

type t

type geometry = { sets : int; line : int }

val default_geometry : geometry
(** 512 sets of one 64-byte line. *)

val create : geometry -> t
(** [sets] and [line] must be powers of two. *)

val geometry : t -> geometry

val access : t -> int -> bool
(** [access t addr] is [true] on a hit; a miss fills the line. When tracing
    is enabled, a run of ≥ 8 consecutive misses is reported as one
    {!Obs.Icache_burst} event at the access that ends it. *)

val misses : t -> int
val accesses : t -> int
val flush : t -> unit
