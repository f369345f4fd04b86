(** Performance-regression gate over the bench driver's [--json] stats.

    [bench --compare BASELINE.json] loads a committed baseline (one of the
    BENCH_PR*.json trajectory files), matches experiments by name against
    the just-measured stats, and checks:

    - {b wall time} may grow by at most [wall_tol] (relative; machine
      noise). Baselines under 0.5 s are skipped — sub-second experiments
      are all noise.
    - {b retired instructions} must match exactly: simulated instruction
      counts are deterministic, so any drift is a semantic change, not
      noise.
    - {b tlb/chain/ic hit rates} may drop by at most 0.02 (absolute).
      Rates are only checked when both sides recorded one and the
      baseline's is meaningful (> 0): baseline-only rows (table1/table3)
      omit the engine fields entirely, and older baselines carry 0.0 for
      experiments that don't run the block engine.
    - {b dropped observability events} may never exceed the baseline's
      count — silent event loss is what the field exists to surface.
      Skipped when either side omits it (older baselines).

    Experiments present on only one side are ignored (suites evolve);
    improvements never fail the gate. Time belongs to perfbench: this gate
    exists for the exact counts, and its wall check is a coarse backstop. *)

type metrics = {
  wall_s : float;
  retired : int;
  tlb_hit_rate : float option;
      (** [None] when the stats file omits the field (baseline-only rows
          that never ran the block engine) — the comparison is skipped *)
  chain_hit_rate : float option;
  ic_hit_rate : float option;
  events_dropped : float option;
}

val load_baseline : string -> (string * metrics) list
(** Parse a bench [--json] file into per-experiment metrics, in file order.
    Unknown fields are ignored so newer stats files load as baselines.
    @raise Failure on malformed JSON or a missing required field. *)

val compare_run :
  ?wall_tol:float ->
  baseline:(string * metrics) list ->
  current:(string * metrics) list ->
  unit ->
  (string * string) list
(** All detected regressions as [(experiment, human-readable reason)]
    pairs; the empty list means the gate passes. [wall_tol] defaults to
    0.25. *)

val report : (string * string) list -> string
(** One line per regression, or a "no regressions" line. *)
