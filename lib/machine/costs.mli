(** Cycle-cost model for the simulated machine and runtime.

    Every retired base instruction costs one cycle. The remaining knobs cover
    the events whose relative expense drives the paper's results: trap-based
    trampolines and proactive checks are orders of magnitude more expensive
    than an extra jump, while Chimera's passive fault handling is paid only on
    actual erroneous executions. Defaults are calibrated so the reproduced
    curves match the paper's shape (see EXPERIMENTS.md). *)

type t = {
  vector_op : int;
      (** Cycles per retired vector instruction (a 256-bit operation is more
          than a 64-bit ALU op, but far less than a scalar loop). *)
  trap : int;
      (** Kernel round trip of a trap-based trampoline ([ebreak], redirect,
          return) — the cost ARMore/strawman patching pays on every
          redirected execution. *)
  fault_recovery : int;
      (** Full fault handling of a deterministic fault: signal delivery,
          fault-address determination, table lookup, context fixup. Paid by
          Chimera only on erroneous executions. *)
  check : int;
      (** Safer-style indirect-jump check when the target is a stale
          pre-rewrite address and must be translated through the table. *)
  check_fast : int;
      (** Safer's fast path: the inlined encode test alone, when the target
          is already a regenerated address (returns, encoded pointers). *)
  migrate : int;
      (** Migrating a task between harts (context transfer + queueing). *)
  lazy_rewrite : int;
      (** Runtime rewriting of an extension instruction that static
          disassembly missed. *)
  icache_miss : int;
      (** L1i refill, charged per missed fetch line when the optional
          {!Icache} model is enabled ([Machine.create ?icache]). *)
}

val default : t
val pp : Format.formatter -> t -> unit
