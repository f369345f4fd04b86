(** Content-addressed persistent translation cache.

    Warm starts load two artifacts instead of recomputing them: the CHBP
    rewrite context ({!Chbp.t} — site tables, SMILE layouts, scavenge
    results) and a translation plan ({!Machine.plan} — post-optimize TIR
    ops, superblock shapes and inline-cache seeds; no decoded
    instructions, which a seed reads from the guest's bytes).
    Artifacts are addressed by an MD5 digest of the guest code bytes, the
    ISA, a caller-supplied configuration tag and {!schema_version}, so
    stale entries are unreachable by construction:
    self-modified code, a different engine configuration or a schema bump
    all compute a different key.

    Every load is total — corrupt, truncated, version-skewed or missing
    entries return [Error reason] (and emit [Obs.Cache_reject]) so the
    caller can fall back to the cold path; they never raise. Every load,
    seed and store-dedup check verifies the file's magic, version, length
    and MD5 ({!Container.check}), in a buffer owned by the calling domain,
    so a warm load allocates no file-sized block. *)

type t

val schema_version : int
(** Baked into both the digest and the on-disk container version: bumping
    it orphans every existing entry (loads report ["version"]). *)

val open_dir : string -> t
(** Open (creating if necessary) a cache directory. *)

val dir : t -> string

(** {1 Content digests}

    Both digests assemble their bytes in a scratch buffer owned by the
    calling domain, so pool workers may digest concurrently, and a call
    copies no page: besides the result, it allocates only a few
    short-lived words. *)

val digest_mem : Memory.t -> isa:Ext.t -> extra:string -> string
(** Hex digest of a memory image's executable pages plus the ISA,
    configuration tag and schema version. Data pages are excluded (they
    mutate during a run); executable pages are exactly what translation
    depends on. Taken after a run, the digest only equals a fresh load's
    digest if the program never modified its own code. *)

val digest_bin : Binfile.t -> extra:string -> string
(** Digest of a SELF binary's executable sections and entry point — the
    address for rewrite artifacts, computable before any memory image
    exists. *)

(** {1 Rewrite contexts} *)

val store_rewrite : t -> key:string -> Chbp.t -> unit
(** Store a context under [key], unless a valid entry already holds it
    (see {!store_plan}). *)

val load_rewrite : t -> key:string -> (Chbp.t, string) result
(** The context stored under [key]; a load failure is [Error reason] with
    {!seed_plan}'s load reasons.

    The file is read and its frame checked on every call. The first load
    of a file decodes it, {!Chbp.share}s the context and keeps it in this
    [t] with the file's checksum; later loads of the key whose file still
    has that checksum return the same, read-only context, on any domain.
    A runtime copies it before rewriting lazily ([Chimera_rt.create]).
    Contexts and plan templates share one memo of at most 16 entries. *)

(** {1 Translation plans} *)

val store_plan : t -> key:string -> Machine.t -> unit
(** Store the machine's translation plan under [key] — call after a
    recording run, with [key] digested from the machine's {e current}
    memory. A valid entry already under [key] (its frame verifies and its
    checksum is one this cache memoized, or it decodes) is kept as it
    is, and the plan is then not even exported ({!Machine.export_plan}
    runs only when the store writes). *)

val seed_plan : t -> key:string -> Machine.t -> (int, string) result
(** Load the plan stored under [key] and seed it into the machine as one
    accounted operation: [Ok blocks] counts a hit; a load failure or a
    machine-side refusal counts a miss with that reason (["miss"],
    ["truncated"], ["magic"], ["version"], ["checksum"], ["decode"],
    ["flags"], ["seed"]) and the caller proceeds cold.

    The file is read and its frame checked on every call. The first seed
    of a file replays it ({!Machine.seed_plan}) and keeps the replay's
    {!Machine.template} in this [t], with the file's checksum; later seeds
    of the same key whose file still has that checksum clone the template
    ({!Machine.seed_template}) instead of unmarshaling and replaying —
    same blocks, counters and events, a fraction of the time and
    allocation. At most 16 entries — templates and {!load_rewrite}'s
    contexts together — are kept, least recently used out first. A [t]
    may be shared by domains. *)

(** {1 Telemetry and maintenance}

    With {!Metrics.enabled}, hits, misses and stores count in the
    [chimera_cache_loads_total], [chimera_cache_rejects_total] and
    [chimera_cache_stores_total] metrics. A store that finds a valid entry
    already holding its digest — the concurrent-tenant duplicate-store
    path — is skipped instead of re-written (content addressing makes it
    redundant: every writer serializes identical bytes) and counts in
    [chimera_cache_dedup_total]. Plan seeds served by a template count in
    [chimera_cache_plan_shared_total] as well as in the loads. *)

val stat : t -> int * int
(** [(entries, bytes)] currently in the cache directory. *)

val clear : t -> int
(** Remove every cache entry (and stray temp file) and drop the in-process
    templates and contexts; returns the count of files removed. *)
