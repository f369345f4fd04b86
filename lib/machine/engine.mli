(** Execution-engine configuration of one {!Machine.t}.

    A machine's engine is chosen once, at {!Machine.create}, and never
    changes. Both values honour the fault-determinism contract
    ({!Machine}): each retires the same instructions and raises the same
    faults at the same pcs; they differ only in speed and in the dispatch
    counters translated code reports. The values are exactly the
    configurations something runs: the step oracle and the translator.

    [Translated] translates an entry the first time it is dispatched into
    one shape: a superblock (inlined direct jumps and forward branches with
    guarded side exits, cross-page blocks) whose straight-line runs are
    lowered through the linear IR ({!Tir}). No entry is interpreted while
    it warms up. The L1i model ([Machine.create ?icache]) charges every
    fetch, so it runs on [Step] only: [Machine.create] raises
    [Invalid_argument] for an icache with [Translated].

    [record] keeps the replay skeleton of every translation so the
    machine's state can be exported as a persistent plan
    ({!Machine.export_plan}). It changes no translation. *)

type t =
  | Step
      (** The single-step reference interpreter: no translation at all (the
          bench's [--engine step]). *)
  | Translated of { record : bool }
      (** Every entry is translated on first touch, and
          register-indirect jumps predict their successor through per-site
          inline caches (the default everywhere, the bench's
          [--engine translated]). *)

val default : t
(** [Translated {record = false}]: what a machine created without
    [?engine] runs. *)

val record : t -> bool
(** Whether translations are recorded ([false] for [Step]). *)

val tag : t -> string
(** A stable name for the code the engine produces: ["step"] or
    ["translated"]. It ignores [record], which changes no translation.
    Cache keys fold it in so that entries made under one engine never
    serve another. *)
