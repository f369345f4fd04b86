(** Guest-level profiler: exact per-block cost attribution on top of the
    translation-block engine.

    The profiler keys a mutable {!row} on each block's entry pc and lets the
    machine account a whole dispatch with a handful of integer adds: dispatch
    hits, retired instructions and penalty cycles are added once per block
    execution, not once per instruction. The instruction-{e class} breakdown
    (loads/stores/branches/ALU/vector, plus the orthogonal compressed bit) is
    exact at the same cost because each block's static class mix is recorded
    once at translation time ({!class_code} per body instruction): a dispatch
    that runs the whole body contributes [static mix x 1] — resolved lazily
    at {!snapshot} as [static mix x full-body dispatches] — and only the rare
    partial dispatch (mid-block fault or fuel exhaustion) walks its executed
    prefix. The single-step engine attributes per instruction through the
    same rows, so both engines produce bit-identical totals
    (test/test_prof.ml pins this differentially).

    Runtime events are attributed to the {e enclosing} block: the machine
    marks the current row for the whole dispatch window (body, terminator and
    any handler it triggers), so TLB misses, icache penalty cycles,
    [Fault_raised]/[Fault_recovered]/[Trap_taken] and trap/recovery cycle
    charges all land on the block that paid for them — SMILE-site cost shows
    up in the same report as the hot loops.

    A jal/jalr shadow stack sampled at block boundaries feeds
    {!write_folded}: standard flamegraph tooling consumes the output
    directly. Attribution is O(1) per dispatch (one frame-weight add; a
    push/pop only on call/return terminators).

    Concurrency: a profile is single-domain, like the observability ring —
    the bench driver forces [-j 1] under [--profile]. *)

(** {1 Instruction classes} *)

val cls_alu : int
val cls_load : int
val cls_store : int
val cls_branch : int
val cls_vector : int

val class_code : Inst.t -> int
(** Class code of one instruction: low 3 bits are the class (priority
    vector > load > store > branch > ALU, so vector loads/stores count as
    vector); bit 3 set for compressed encodings; bit 4 marks a call
    ([jal]/[jalr] linking ra, [c.jalr]) and bit 5 a return ([jalr x0, ra],
    [c.jr ra]) for the shadow stack. Fits a byte. *)

val is_call : int -> bool
val is_ret : int -> bool

(** {1 Profiles and rows} *)

type t
type row

val create : unit -> t

val session : t -> int
(** Unique id of this profile instance. A {!row} cached on a translation
    block (Tblock's [prow]) is only valid for the profile with the same
    session — {!row_live} is the guard. *)

val row_live : t -> row -> bool

val bind : t -> entry:int -> classes:Bytes.t -> term:int -> row
(** Find or create the row for the block at [entry]. [classes] holds the
    {!class_code} of each body instruction and [term] the terminator's code
    (-1 if the block has none). If the entry re-translated to a different
    body (code patching), the accounting already done under the old mix is
    flushed into per-class counters before the row is re-described — totals
    stay exact across invalidation. *)

val row_describes : row -> classes:Bytes.t -> term:int -> bool
(** Whether the row currently carries exactly this static description
    ([classes] compared physically — the machine's per-dispatch guard for a
    row cached on a translation block; a miss re-{!bind}s). *)

val set_global : t option -> unit
(** Install the ambient profile picked up by machines at creation time
    ([Machine.create] attaches it; the CLI and bench driver set it before
    building workloads). *)

val global : unit -> t option

(** {1 Machine hooks}

    Called by lib/machine; not meant for direct use. *)

val begin_dispatch : t -> row option -> unit
(** Mark the row as the enclosing block for runtime-event attribution
    ({!note_recovered}/{!note_trap} and the charge cycles folded into the
    dispatch deltas). Takes the caller's cached option as-is so the
    per-dispatch fast path allocates nothing. *)

val block_dispatch :
  t ->
  row ->
  executed:int ->
  retired:int ->
  cycles:int ->
  tlb:int ->
  fault:bool ->
  target:int ->
  unit
(** Account one block-engine dispatch: [executed] completed body
    instructions (= the full body unless a taken side exit, a fault or fuel
    cut it short — partial dispatches are counted per prefix length and
    resolved against the static mix at snapshot time, so hot side exits stay
    O(1) per dispatch),
    [retired]/[cycles]/[tlb] the machine-counter deltas over the
    whole dispatch window (terminator and handlers included), [fault]
    whether the window raised a machine fault, [target] the pc after the
    dispatch (the callee entry when the terminator was a call). The
    terminator's retirement is inferred from [retired - executed]. Penalty
    cycles are [cycles - retired]: everything charged beyond one cycle per
    retired instruction (vector surcharge, trap/recovery costs). A block
    dispatch charges no icache misses: the L1i model runs on the step
    engine only ({!step_end}). *)

val step_begin : t -> pc:int -> cls:int -> unit
(** Single-step engine: called before executing the instruction at [pc]
    with its {!class_code} ([-1] when it cannot be decoded). Rows are keyed
    by dynamic block leaders (the first instruction after a control
    transfer), so step-engine rows aggregate like block-engine rows. *)

val step_end :
  t -> retired:int -> cycles:int -> tlb:int -> icache:int -> target:int -> unit
(** Account the instruction begun by {!step_begin}; [retired] is 0 exactly
    when it faulted. *)

val note_recovered : t -> unit
(** A [Fault_recovered] was attributed to the current dispatch's block. *)

val note_trap : t -> unit
(** A [Trap_taken] was attributed to the current dispatch's block. *)

(** {1 Results} *)

type snap = {
  s_entry : int;  (** block entry pc *)
  s_body : int;  (** static body length at the end of profiling *)
  s_hits : int;  (** dispatches *)
  s_retired : int;
  s_loads : int;
  s_stores : int;
  s_branches : int;
  s_alu : int;
  s_vector : int;
  s_compressed : int;  (** compressed encodings among the retired (orthogonal) *)
  s_penalty : int;  (** cycles beyond one per retired instruction *)
  s_tlb : int;  (** software-TLB misses in this block's dispatch windows *)
  s_icache : int;  (** L1i misses (0 when the model is off) *)
  s_faults : int;  (** machine faults raised *)
  s_recovered : int;  (** SMILE recoveries attributed here *)
  s_traps : int;  (** trap-trampoline redirects attributed here *)
}

val snapshot : t -> snap list
(** One snap per row, sorted by entry pc. Class counts are exact:
    [s_loads + s_stores + s_branches + s_alu + s_vector = s_retired]. *)

val total_retired : t -> int
(** Sum of [s_retired] — must equal the machine's retired count over the
    profiled execution exactly (CI asserts this). *)

val to_events : t -> Obs.event list
(** The snapshot as [Tb_profile] events (sorted by entry), appended to a
    JSONL trace so [chimera profile] rebuilds the identical report
    offline. *)

val snaps_of_events : Obs.event list -> snap list
(** Inverse of {!to_events}: the [Tb_profile] lines of a trace, in order;
    non-profile events are ignored. *)

val write_folded : t -> out_channel -> unit
(** Write the shadow-stack weights in folded-stack format, one
    ["frame;frame;... count"] line per distinct stack, ready for
    [flamegraph.pl] / [inferno-flamegraph]. Frames are callee entry
    addresses in hex under a synthetic ["all"] root; counts are retired
    instructions. *)
