(** Execution-engine configuration of one {!Machine.t}.

    A machine's engine is chosen once, at {!Machine.create}, and never
    changes. Every value below honours the fault-determinism contract
    ({!Machine}): each one retires the same instructions and raises the
    same faults at the same pcs; they differ only in speed and in the
    dispatch counters translated code reports. The values are exactly the
    configurations something runs: the step oracle, the server's and
    library's untiered translator, and the bench's tiered default.

    Both translating engines translate an entry the first time it is
    dispatched, at the top tier the machine's configuration allows: tier 3,
    a superblock (inlined direct jumps and forward branches with guarded
    side exits, cross-page blocks) whose straight-line runs are lowered
    through the linear IR ({!Tir}). A machine created with an icache model
    ([Machine.create ?icache]) translates at tier 2, the same superblock
    without the IR, because the model's per-fetch accounting needs
    per-instruction units. No entry is interpreted while it warms up.

    In [Untiered] and [Tiered], [record] keeps the replay skeleton of
    every translation so the machine's state can be exported as a
    persistent plan ({!Machine.export_plan}). It changes no translation. *)

type t =
  | Step
      (** The single-step reference interpreter: no translation at all (the
          bench's [--engine step]). *)
  | Untiered of { record : bool }
      (** Every entry is translated on first touch at the top tier, with
          no inline caches (the bench's [--engine untiered]). *)
  | Tiered of { record : bool }
      (** [Untiered] plus inline caches: every entry is translated on first
          touch at the top tier, and register-indirect jumps predict their
          successor through per-site inline caches (the bench's default,
          [--engine tiered]). *)

val default : t
(** [Untiered {record = false}]: what a machine created without [?engine]
    runs. *)

val record : t -> bool
(** Whether translations are recorded ([false] for [Step]). *)

val tag : t -> string
(** A stable name for the code the engine produces: ["step"],
    ["untiered"] or ["tiered"]. It ignores [record], which changes no
    translation. Cache keys fold it in so that entries made under one
    engine never serve another. *)
