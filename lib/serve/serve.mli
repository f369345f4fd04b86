(** Multi-tenant rewrite-and-execute server.

    A long-running service over the existing pieces: guests (SELF binaries
    or Specgen profiles) are admitted into a {!Sched.Pool} of worker
    domains; each request rewrites — or loads from the shared persistent
    {!Cache.t} — through CHBP, runs in a private runtime and memory view
    (torn down with the request), and reports retired/cycles/latency. One
    cache spans all tenants, so a hot tenant's rewrite context and
    translation plan warm every replica of the same content digest.

    {b Determinism contract.} A request's execution depends only on its
    binary, ISA, rewrite mode, engine tier and fuel — never on scheduling,
    co-tenants or cache temperature. Each machine is created with its own
    {!Engine.t}, so a pooled request retires bit-identically to {!execute} run solo;
    the tenant-isolation property test and the bench's solo-equality check
    enforce this end to end.

    {b Domain discipline.} {!submit}, {!await}, {!drain}, {!shutdown} and
    {!Daemon.listen} belong to the owning domain (they emit Obs events);
    request bodies run on worker domains and touch only the domain-sharded
    metrics. When tracing is enabled at {!create} time the server executes
    requests inline on the owning domain instead of spawning a pool — the
    Obs ring is single-domain and a traced run wants a reproducible event
    order. *)

val default_fuel : int

type outcome = {
  o_tenant : string;
  o_id : int;  (** submission order, unique per server *)
  o_stop : string;
      (** ["exit:N"], ["fault:..."], ["fuel"] or ["error:..."] (the
          request body raised) *)
  o_exit : int option;  (** [Some n] only for a clean guest exit *)
  o_retired : int;
  o_cycles : int;
  o_warm : bool;  (** translation plan seeded from the shared cache *)
  o_wait_us : int;  (** admission to first instruction *)
  o_latency_us : int;  (** admission to completion *)
}

type stats = {
  admitted : int;
  rejected : int;
  completed : int;
  queue_depth : int;
  peak_depth : int;
}

type tenant_stat = {
  ts_tenant : string;
  ts_requests : int;
  ts_retired : int;
  ts_cycles : int;
  ts_warm : int;  (** requests whose plan came warm from the cache *)
}

val engine : tiered:bool -> record:bool -> Engine.t
(** The engine of every request: [Tiered] or [Untiered] as [tiered]
    says, with [record] for runs whose translation plan is stored. The
    CLI's [--tiered] flag means the same engine. *)

val cfg_tag : mode:Chbp.mode -> tiered:bool -> string
(** The configuration tag folded into every cache digest this server
    computes: artifacts are shared only between requests agreeing on
    binary, ISA, rewrite mode and engine ({!Engine.tag}). *)

val execute :
  ?cache:Cache.t ->
  isa:Ext.t ->
  mode:Chbp.mode ->
  tiered:bool ->
  fuel:int ->
  Binfile.t ->
  Machine.stop * int * int * bool
(** Run one guest end to end on the calling domain: rewrite (or cache
    load), fresh runtime + memory view on one {!Engine.t} ({!engine}),
    optional plan seed/store. Returns [(stop, retired, cycles, warm)]. This is both the
    pool worker body and the solo oracle the differential tests compare
    against. *)

type t

val create :
  ?cache:Cache.t ->
  ?max_queue:int ->
  ?steal:bool ->
  base_workers:int ->
  ext_workers:int ->
  unit ->
  t
(** Start a server. [?cache] is shared by every tenant; [?max_queue] bounds
    admission (beyond it {!submit} returns [Error `Saturated]); workers
    split into scheduler classes as in {!Sched.Pool.create}. With tracing
    enabled, no domains are spawned and requests execute inline. *)

val submit :
  t ->
  tenant:string ->
  ?prefer_ext:bool ->
  ?isa:Ext.t ->
  ?mode:Chbp.mode ->
  ?tiered:bool ->
  ?fuel:int ->
  Binfile.t ->
  (int, [ `Saturated ]) result
(** Admit one request for [tenant]; returns its id. Emits [Serve_admit] /
    [Serve_reject], bumps the admission counters and the per-tenant
    retired counter at completion. Owning domain only. *)

val await : t -> int -> outcome
(** Block until request [id] completes and return its outcome. *)

val drain : t -> unit
(** Block until every admitted request has completed, then emit any
    pending [Serve_done] events (id order, deterministic fields). *)

val shutdown : t -> unit
(** {!drain}, then stop and join the worker domains. *)

val outcomes : t -> outcome list
(** Completed outcomes in id (submission) order. *)

val stats : t -> stats

val tenant_stats : t -> tenant_stat list
(** Per-tenant aggregates over completed requests, sorted by tenant. *)

(** One-client-at-a-time line protocol over a Unix-domain socket:
    [RUN <tenant> <file.self>], [SPEC <tenant> <profile>], [STAT],
    [QUIT]. RUN/SPEC block until the request completes and reply
    ["OK id=... stop=... retired=... cycles=... warm=... latency_us=..."];
    errors reply ["ERR <reason>"]. *)
module Daemon : sig
  val listen :
    t ->
    path:string ->
    ?isa:Ext.t ->
    ?tiered:bool ->
    ?max_requests:int ->
    unit ->
    unit
  (** Serve until [QUIT] or [max_requests] RUN/SPEC commands, running every
      request under [isa] (default rv64gc). Removes any stale socket at
      [path] first and unlinks it on exit. *)
end
