(** Execution-engine configuration of one {!Machine.t}.

    A machine's engine is chosen once, at {!Machine.create}, and never
    changes. Every value below honours the fault-determinism contract
    ({!Machine}): each one retires the same instructions and raises the
    same faults at the same pcs; they differ only in speed and in the
    dispatch counters translated code reports. The values are exactly the
    configurations something runs: the six of the CI engine-agreement
    check, the bench's ablation flags, the server and the CLI.

    In [Block] and [Super], [record] keeps the replay skeleton of every
    translation so the machine's state can be exported as a persistent
    plan ({!Machine.export_plan}). It changes no translation. *)

type t =
  | Step
      (** The single-step reference interpreter: no translation at all (the
          bench's [--engine step]). *)
  | Block of { record : bool }
      (** Straight-line translation blocks that end at the first
          control-flow instruction, IR-optimized, with direct chaining (the
          bench's [--engine block]). *)
  | Super of { ir : bool; tiered : bool; ic : bool; record : bool }
      (** Superblocks: inlined direct jumps and forward branches with
          guarded side exits, and cross-page blocks.
          - [ir]: lower straight-line runs through the linear IR ({!Tir})
            and emit optimized multi-instruction units; off compiles every
            instruction to its direct closure (the bench's [--no-ir]).
          - [tiered]: interpret cold code, then climb block → superblock →
            IR-optimized as dispatch counts cross thresholds, and recompile
            hot blocks whose observed side-exit profile contradicts the
            static layout (off: the bench's [--no-tier]).
          - [ic]: per-site inline caches for register-indirect jumps (off:
            the bench's [--no-ic]). *)

val default : t
(** [Super {ir = true; tiered = false; ic = false; record = false}]: what
    a machine created without [?engine] runs. *)

val record : t -> bool
(** Whether translations are recorded ([false] for [Step]). *)

val tag : t -> string
(** A stable name for the code the engine produces, e.g. ["step"],
    ["block"] or ["super;ir=true;tier=true;ic=true"]. It ignores [record],
    which changes no translation. Cache keys fold it in so that entries
    made under one engine never serve another. *)
