(** Structured observability: typed events, a ring-buffer sink, JSONL
    serialization, and per-site aggregation.

    The paper's central quantitative claim (Table 2) is that SMILE makes
    correctness events *rare*: CHBP recovers a handful of faults where the
    baselines trigger thousands of traps and checks. This module makes every
    such event — and the execution-engine events behind the harness's
    performance — visible as a typed stream, so "where and why did this
    trampoline fire" is answerable from a trace instead of only as an
    end-of-run total.

    {b Cost model.} Tracing is off by default and every emission site in the
    hot paths is guarded by a single load-and-branch on {!enabled}
    ([if !Obs.enabled then Obs.emit (...)]); the event is not even allocated
    when tracing is off, so the translation-block fast path keeps its speed.
    When tracing is on, events are buffered in a fixed-capacity ring and
    handed to the installed sink in batches.

    {b Concurrency.} The subsystem is single-domain: enable tracing only for
    sequential runs (the bench driver forces [-j 1] under [--trace]; the
    parallel driver gets its own cell-level Chrome export instead). Reading
    {!enabled} from other domains while tracing is off is safe.

    The JSONL schema produced by {!Json} is documented in OBSERVABILITY.md;
    {!Json.of_line} is its reference parser and golden/round-trip tests pin
    it. *)

(** One observed event. Payloads are primitive so that every layer of the
    stack (machine, rewriter, runtime, scheduler, harness) can emit without
    depending on each other's types; addresses are simulated byte addresses.

    Emission points, by layer:
    - machine: {{!constructor-Tb_compile}Tb_compile}/[Tb_hit]/[Tb_invalidate]/
      [Tb_chain] (translation-block engine), [Ic_hit]/[Ic_miss]/[Ic_mega]
      (indirect-jump inline caches), [Tlb_flush] (software TLB),
      [Fault_raised] (deterministic faults, both engines), [Icache_burst]
      (L1i model);
    - rewriter: [Rw_site]/[Rw_exit] (trampoline placement and exit-register
      resolution), [Smile_write] (trampoline bytes written),
      [Table_add] (fault/trap-table entries);
    - runtime: [Fault_recovered], [Trap_taken], [Lazy_discovered],
      [Signal_delivered];
    - baselines: [Check_taken] (Safer/Multiverse), [Trap_taken] (ARMore,
      strawman);
    - scheduler: [Sched_steal], [Sched_migrate];
    - harness: [Meta], [Phase_begin]/[Phase_end] (cell bracketing). *)
type event =
  | Meta of { version : int }  (** First line of every trace file. *)
  | Phase_begin of { name : string }
  | Phase_end of { name : string }
  | Tb_compile of { entry : int; body : int }
      (** A translation block was (re)compiled at [entry] with [body]
          straight-line instructions. *)
  | Tb_hit of { entry : int; body : int }
      (** A cached, still-valid block was entered. *)
  | Tb_invalidate of { addr : int; len : int }
      (** Code patch: page generations over [addr, addr+len) were bumped. *)
  | Tb_chain of { src : int; dst : int }
      (** The block at [src] was directly chained to the block at [dst]:
          subsequent transfers along this edge skip the block-table probe. *)
  | Tb_superblock of {
      entry : int;
      insts : int;
      pages : int;
      jumps : int;
      exits : int;
      fused : int;
    }
      (** Compile-time shape of the superblock at [entry] (paired with its
          [Tb_compile]): [insts] body instructions spanning [pages] pages,
          with [jumps] inlined direct jumps, [exits] inlined conditional
          branches (potential side exits) and [fused] instructions merged
          into multi-instruction execution units. *)
  | Tb_side_exit of { entry : int; target : int }
      (** A dispatch of the block at [entry] left through a taken inlined
          branch to [target] instead of completing its body. *)
  | Tb_ir of {
      entry : int;
      units : int;
      folded : int;
      dead : int;
      pc_elided : int;
      cached : int;
    }
      (** IR pass statistics for the translation at [entry] (paired with
          its [Tb_compile]): the lowered runs were emitted as [units]
          execution units after [folded] ops were folded to constants
          (substituting [cached] operand reads), [dead] ops were killed by
          dead-write elimination, and [pc_elided] ops were emitted without
          a pc write. *)
  | Ic_hit of { site : int; target : int }
      (** The inline cache at indirect-jump site [site] predicted [target]
          and its cached block passed the epoch guard — the dispatch skipped
          the block table. *)
  | Ic_miss of { site : int; target : int }
      (** The inline cache at [site] did not cover [target]; the dispatch
          fell back to the block table and the cache was retrained. *)
  | Ic_mega of { site : int; targets : int }
      (** The cache at [site] overflowed its polymorphic table after
          observing [targets] distinct targets and went megamorphic: the
          site stops caching and always probes the block table. *)
  | Tlb_flush of { addr : int; len : int }
      (** A mapping/permission change over [addr, addr+len) advanced the
          software-TLB permission epoch; every memory's TLB lazily flushes
          before its next access. *)
  | Icache_burst of { addr : int; misses : int }
      (** A run of [misses] consecutive L1i misses ended at [addr]. *)
  | Fault_raised of { pc : int; cause : string }
      (** A deterministic machine fault; [cause] is ["sigill"], ["sigsegv"]
          or ["misaligned"]. Raised before any handler runs — pairing it
          with the following [Fault_recovered] (or lack thereof) shows
          whether recovery succeeded. *)
  | Fault_recovered of { site : int; redirect : int; cause : string }
      (** The Chimera runtime attributed a fault to trampoline [site] and
          resumed at [redirect] (the paper's passive SMILE mechanism). *)
  | Trap_taken of { site : int; target : int }
      (** A trap-based trampoline (ebreak) at [site] redirected to
          [target] (strawman / ARMore / CHBP trap fallback). *)
  | Check_taken of { site : int; target : int }
      (** A Safer-style checked indirect jump executed at [site] with
          untranslated [target]. *)
  | Lazy_discovered of { root : int; patches : int }
      (** Lazy rewriting extended the rewrite from fault site [root],
          producing [patches] memory patches. *)
  | Signal_delivered of { pc : int; gp_restored : bool }
      (** A signal was delivered at [pc]; [gp_restored] means the kernel
          model found gp mid-trampoline and presented the ABI value. *)
  | Sched_steal of { core : int; cls : string; task : int }
      (** Core [core] (class ["base"]/["extension"]) stole [task] from the
          other pool's queue. *)
  | Sched_migrate of { task : int; cycles : int }
      (** FAM: [task] aborted on a base core after [cycles] and was requeued
          on the extension pool. *)
  | Rw_site of { site : int; style : string }
      (** Rewrite time: an entry trampoline was placed at [site]; [style] is
          ["smile"], ["trap"] or ["greg"]. *)
  | Rw_exit of { site : int; kind : string }
      (** Rewrite time: the exit register at [site] was resolved by
          ["liveness"], ["shift"], ["terminator"] or fell back to ["trap"]. *)
  | Smile_write of { pc : int; target : int }
      (** The 8 SMILE bytes were written over [pc], targeting [target]. *)
  | Table_add of { key : int; redirect : int; table : string }
      (** An entry was added to the ["fault"] or ["trap"] table. *)
  | Tb_profile of {
      entry : int;
      body : int;
      hits : int;
      retired : int;
      loads : int;
      stores : int;
      branches : int;
      alu : int;
      vector : int;
      compressed : int;
      penalty : int;
      tlb : int;
      icache : int;
      faults : int;
      recovered : int;
      traps : int;
    }
      (** End-of-run snapshot of one guest profiler row (lib/prof): the
          block at [entry] was dispatched [hits] times and retired [retired]
          instructions split exactly into
          [loads + stores + branches + alu + vector]; [compressed] counts
          16-bit encodings among them (orthogonal to class). [penalty] is
          cycles charged beyond one per retired instruction; [tlb]/[icache]/
          [faults]/[recovered]/[traps] attribute runtime events to this
          block. Emitted when a run both traces and profiles, so
          [chimera profile] rebuilds the live report offline. *)
  | Cache_load of { key : string; entries : int; bytes : int }
      (** The persistent translation cache served a warm start: the entry
          keyed by content digest [key] (hex) was loaded and seeded
          [entries] artifacts ([bytes] on disk). *)
  | Cache_store of { key : string; entries : int; bytes : int }
      (** A cold run persisted its rewrite/translation artifacts under
          digest [key]: [entries] artifacts, [bytes] on disk. *)
  | Cache_reject of { key : string; reason : string }
      (** A cache lookup failed safe and the run fell back to the cold
          compile path; [reason] is ["miss"], ["truncated"], ["checksum"],
          ["magic"], ["version"], ["flags"], ["decode"] or ["seed"]. *)
  | Health_ok of { rule : string }
      (** The metrics watchdog ([Metrics.Watchdog]) evaluated [rule]
          against a snapshot delta and found it within bounds. *)
  | Health_degraded of { rule : string; reason : string }
      (** The watchdog rule [rule] fired; [reason] is the human-readable
          measurement (rate, counts) that tripped it. *)
  | Serve_admit of { tenant : string; id : int }
      (** The serve layer accepted request [id] from [tenant] into the
          Domain-pool queue. Carries no wall-clock so traces stay
          deterministic; latency lives in the metrics histogram. *)
  | Serve_done of { tenant : string; id : int; retired : int }
      (** Request [id] from [tenant] completed, retiring [retired] guest
          instructions on whichever worker ran it. *)
  | Serve_reject of { tenant : string; id : int; reason : string }
      (** Admission refused request [id] from [tenant]; [reason] is
          ["saturated"] (queue at capacity) or ["shutdown"]. *)

val schema_version : int

(** {1 Enable / emit} *)

val enabled : bool ref
(** The one-branch guard. Emission sites must read it before allocating an
    event: [if !Obs.enabled then Obs.emit (...)]. Do not set it directly —
    use {!enable}/{!disable} so the ring is set up and drained. *)

val emit : event -> unit
(** Append to the ring (no-op when disabled). The ring flushes to the sink
    when full. *)

val enable : sink:(event array -> int -> unit) -> unit
(** Install [sink] and turn tracing on. The sink receives the ring array and
    the number of valid events (prefix); it must not retain the array.
    Emits {!Meta} as the first event. *)

val disable : unit -> unit
(** Flush the remaining events to the sink and turn tracing off. *)

val events_emitted : unit -> int
(** Events emitted since the last {!enable}. *)

val events_dropped : unit -> int
(** Events a bounded sink discarded since the last {!enable}. The channel
    sink never drops (every flush is written through), so a trace run
    reports 0; {!enable_memory} drops — and counts — the oldest events
    once its buffer wraps. Surfaced by the bench driver's trace-exit
    validation and [--json] output so loss is never silent. *)

val enable_memory : ?capacity:int -> unit -> unit
(** Turn tracing on with a bounded in-memory sink holding the most recent
    [capacity] events (default: the ring capacity, 4096). When the buffer
    wraps, overwritten events are counted in {!events_dropped}. This is
    the always-on capture mode: a long-running process keeps a post-mortem
    tail without unbounded growth ([chimera metrics] uses it). *)

val recent : unit -> event list
(** The events currently retained by the {!enable_memory} buffer, oldest
    first (empty if {!enable_memory} was never used). Flushes the pending
    ring first when tracing is still on. *)

(** {1 JSONL encoding} *)

module Json : sig
  val to_line : event -> string
  (** One JSON object per event, no trailing newline. Keys: ["ev"] plus the
      payload fields under their OCaml names; the schema is documented in
      OBSERVABILITY.md and pinned by the golden test. *)

  val of_line : string -> event option
  (** Strict inverse of {!to_line} ([None] on any deviation, including a
      [Meta] line whose version differs from {!schema_version} — a trace
      written under another schema must not parse silently). *)

  val channel_sink : out_channel -> event array -> int -> unit
  (** A sink writing each event as one line to the channel. *)

  val read_file : string -> event list
  (** Parse a JSONL trace file. @raise Failure on the first malformed line
      (with its line number); a version-mismatched [Meta] line gets a
      dedicated "trace schema version N, this build reads version M"
      message. *)
end

(** {1 Aggregation}

    The trace validator's independent recount: folds an event stream back
    into the per-site counts and histograms the report prints — the bridge
    that lets Table-2-style numbers be reproduced from a trace alone.
    [totals] counts only the event kinds something reads; the metrics
    registry counts the rest at their source. *)

module Agg : sig
  type t

  type totals = {
    mutable faults_raised : int;
    mutable faults_recovered : int;
    mutable traps : int;
    mutable checks : int;
    mutable lazies : int;
    mutable tb_compiles : int;
    mutable tb_hits : int;
    mutable tb_invalidations : int;
    mutable icache_bursts : int;
    mutable steals : int;
    mutable migrations : int;
    mutable signals : int;
    mutable ic_hits : int;
    mutable ic_misses : int;
    mutable ic_megamorphic : int;  (** sites that went megamorphic *)
  }

  val create : unit -> t
  val observe : t -> event -> unit
  val totals : t -> totals

  val profile_events : t -> event list
  (** The observed [Tb_profile] events in stream order — the offline
      [chimera profile] report is rebuilt from these. *)

  val correctness_events : t -> int
  (** The Table 2 metric recomputed from the stream:
      [faults_recovered + traps + checks]. *)

  val per_site : t -> (int * int) list
  (** Correctness events ([Fault_recovered] + [Trap_taken] + [Check_taken])
      per site, sorted by site address — deterministic regardless of event
      order. *)

  val tb_body_histogram : t -> (string * int) list
  (** Compiled-block body lengths bucketed as ["1".."8"], ["9".."32"],
      ["33".."128"], ["129+"] (label, count). *)
end
