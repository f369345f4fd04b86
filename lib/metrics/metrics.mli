(** Always-on metrics: sharded counters, gauges and log-linear histograms
    with snapshot-time merge, Prometheus/JSON exposition and a health
    watchdog.

    Where `lib/obs` answers "what happened, in order" (a typed event
    stream, single-domain, post-mortem), this module answers "what is the
    process doing right now" — live rates, latency distributions and
    health signals cheap enough to leave enabled in production and safe
    under [-j N], which [--trace] is not.

    {b Cost model.} Recording is off by default and every emission site is
    guarded by a single load-and-branch on {!enabled}
    ([if !Metrics.enabled then Metrics.incr c]) — the same discipline as
    [Obs.enabled], verified by the bench regression gate. When on, a
    counter bump is a domain-local array increment: no lock, no allocation,
    no atomic. Histogram recording is one array increment into a fixed
    log-linear bucket layout (HDR-style); quantiles cost nothing until
    {!Snapshot.take}.

    {b Concurrency.} Each domain records into its own shard
    (domain-local storage); shards are merged by addition at snapshot
    time. Addition is commutative and associative, so — exactly like
    [Counters.add] — aggregation is deterministic and independent of both
    domain count and merge order ([test/test_metrics.ml] runs the same
    workload on 1 and on 4 domains and asserts identical snapshots).
    A snapshot taken while other domains are still recording is a
    consistent sum of slightly-stale shard views; taken after
    [Domain.join] it is exact.

    {b Identity.} Metrics are registered by name (conventionally
    [chimera_<what>_total] for counters, Prometheus style) at module-init
    time; registering an existing name returns the existing metric. *)

val enabled : bool ref
(** The one-branch guard. Emission sites must read it before touching a
    metric: [if !Metrics.enabled then Metrics.add c n]. Use
    {!enable}/{!disable} rather than setting it directly. *)

val enable : unit -> unit
(** Turn recording on. Does not clear accumulated values — count a window
    as a {!Snapshot.delta} of two snapshots. *)

val disable : unit -> unit

val reset : unit -> unit
(** Zero every shard of every metric. Call only between parallel sections
    (no domain may be recording concurrently). Prefer {!Snapshot.delta}
    for counting a window: it leaves the process totals whole, so another
    reader's windows and an end-of-run exposition stay correct. *)

(** {1 Metric kinds} *)

type counter
(** Monotonic within a reset window. *)

type gauge
(** A level, maintained by [+delta]/[-delta] — merging shards by summing
    deltas is order-independent, unlike last-write-wins. *)

type histogram
(** Log-linear buckets: exact for values in [0, 16), then 16 sub-buckets
    per power of two, so relative bucket width is bounded by 1/16 and a
    quantile read off the bucket midpoint is within one bucket width of
    the exact sample ([test_metrics.ml] property-tests the bound). *)

val counter : ?help:string -> string -> counter
val gauge : ?help:string -> string -> gauge
val histogram : ?help:string -> string -> histogram
(** Register (or look up) a metric by name. A name may only be registered
    under one kind; [Invalid_argument] otherwise. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Negative amounts are rejected with [Invalid_argument] (counters are
    monotonic); [add c 0] is a no-op. *)

val gauge_add : gauge -> int -> unit

val observe : histogram -> int -> unit
(** Record one sample. Negative samples clamp to bucket 0. *)

(** {1 Bucket layout} (exposed for tests and external readers) *)

module Buckets : sig
  val count : int
  (** Total number of buckets. *)

  val index : int -> int
  (** The bucket a sample lands in. *)

  val lo : int -> int
  val hi : int -> int
  (** Bucket [i] covers [\[lo i, hi i)]; [hi i - lo i] is the error bound
      for any estimate read off the bucket. *)
end

(** {1 Snapshots and exposition} *)

type verdict = {
  v_rule : string;  (** rule name, e.g. ["tlb_collapse"] *)
  v_ok : bool;
  v_value : float;  (** the measured quantity the rule tested *)
  v_detail : string;  (** human-readable explanation *)
}

module Snapshot : sig
  type hist = {
    h_count : int;
    h_sum : int;
    h_buckets : int array;  (** length {!Buckets.count}, raw counts *)
  }

  type t

  val take : unit -> t
  (** Merge all shards (addition / bucket-wise addition). *)

  val empty : t
  (** The all-zero snapshot — the natural [prev] for whole-run watchdog
      evaluation. *)

  val delta : cur:t -> prev:t -> t
  (** Pointwise subtraction; metrics absent from [prev] pass through. *)

  val counter_value : t -> string -> int
  (** 0 when the counter was never registered or never bumped. *)

  val gauge_value : t -> string -> int
  val histogram_value : t -> string -> hist option

  val buckets : hist -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi, count)], ascending — bucket-wise
      comparable across runs. *)

  val quantile : hist -> float -> float
  (** [quantile h q] for [q] in [(0, 1]]: the midpoint of the bucket
      holding the [ceil (q * count)]-th smallest sample; [0.] when the
      histogram is empty. Error is bounded by that bucket's width. *)

  val to_prometheus : ?health:verdict list -> t -> string
  (** Prometheus text exposition format: [# HELP]/[# TYPE] preambles,
      counters and gauges as bare samples, histograms as cumulative
      [_bucket{le="..."}] series plus [_sum]/[_count]. With [?health],
      appends one [chimera_health{rule="..."}] gauge per verdict and an
      overall [chimera_healthy] gauge. *)

  val to_json : ?health:verdict list -> t -> string
  (** One JSON object: ["counters"]/["gauges"] name→value maps,
      ["histograms"] with count/sum/p50/p90/p99/p999 and non-empty
      buckets, optional ["health"] verdict array. Parseable by the
      hand-rolled reader in [lib/regress]. *)
end

(** {1 Health watchdog}

    Declarative rules evaluated against the delta between two snapshots
    (or a whole run via {!Snapshot.empty}). Each evaluation emits a typed
    [Health_ok]/[Health_degraded] Obs event per rule when tracing is on —
    the liveness probe a serving daemon exposes. *)

module Watchdog : sig
  type source =
    | Counter of string  (** one counter's delta *)
    | Gauge of string
        (** one gauge's delta — net movement over the window, so a level
            that returns to its starting point reads 0 and only sustained
            growth (e.g. a scheduler queue that never drains) registers *)
    | Sum of string list  (** sum of several counters' deltas *)

  type predicate =
    | Rate_below of { num : source; den : source; min_den : int; floor : float }
        (** Degraded when [num/den < floor], once [den >= min_den]. *)
    | Rate_above of { num : source; den : source; min_den : int; ceil : float }
        (** Degraded when [num/den > ceil], once [den >= min_den]. *)
    | Stalled of { counter : string; while_counter : string; min_active : int }
        (** Degraded when [counter] did not move although [while_counter]
            advanced by at least [min_active]. *)
    | Burst of { counter : string; max : int }
        (** Degraded when [counter] advanced by more than [max] in the
            window. *)

  type rule = { r_name : string; r_what : string; r_check : predicate }

  val default_rules : rule list
  (** [dispatch_stall] (retired advances but no block dispatches),
      [chain_collapse] (chain and inline-cache hits over dispatches),
      [cache_reject_burst], [queue_saturation] (net scheduler-queue growth
      per admitted serve request, active once at least 64 requests were
      admitted in the window), [tlb_collapse] (TLB hit rate floor). *)

  val evaluate :
    ?rules:rule list -> prev:Snapshot.t -> cur:Snapshot.t -> unit -> verdict list
  val healthy : verdict list -> bool
end
