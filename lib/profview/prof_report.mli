(** Rendering of guest-profiler results: the hot-block table, instruction-mix
    histograms, and optional annotated disassembly.

    The renderer consumes {!Profile.snap} lists, so the same code path
    serves the live CLI ([run --profile FILE]), the bench driver
    ([--profile DIR]) and the offline [chimera profile TRACE] mode (snaps
    rebuilt from [Tb_profile] events). Output is deterministic for a given
    snap list — the offline report of a traced run is byte-identical to the
    live one, and a golden test pins that. *)

type ic_note = {
  icn_site : int;  (** jalr/c.jr/c.jalr site pc *)
  icn_state : string;  (** "mono", "poly", "mega" (or "empty") *)
  icn_targets : int;
  icn_hits : int;
  icn_misses : int;
}
(** One inline-cache site for the report, as plain data so the renderer
    stays machine-independent (the live CLI maps [Machine.ic_infos] into
    this; offline traces have no per-site IC state, only the aggregate
    counters carried by [totals]). *)

val render :
  ?top:int ->
  ?disasm:Disasm.t ->
  ?ics:ic_note list ->
  ?totals:Obs.Agg.totals ->
  out_channel ->
  Profile.snap list ->
  unit
(** Write the full report: run totals, the [top] (default 20) hottest
    blocks by retired instructions, the exact instruction-class mix
    histogram, and — when [disasm] is available — annotated disassembly of
    the hottest blocks.

    [ics] adds an inline-cache table (hottest sites first). [totals] adds
    the trace's aggregate inline-cache counters to the summary — the
    offline [chimera profile] passes the v5 event totals here. *)
