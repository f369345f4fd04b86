(** The simulated RV64 hart: fetch/decode/execute with deterministic faults.

    A [Machine.t] is one task's execution context: integer and vector
    register files, program counter, a reference to the memory (address-space
    view) it executes in, and cycle counters. Hart heterogeneity is the
    [isa] capability set: executing an instruction outside it raises an
    illegal-instruction fault, exactly the behaviour FAM scheduling and lazy
    rewriting rely on.

    Control events (faults, [ebreak] traps, syscalls, the Safer check
    instruction) are delivered to caller-supplied {!handlers}; the runtime
    library installs policy-specific ones.

    {b Fault determinism contract.} Given the same memory and register
    state, executing at a pc either retires the same instruction or raises
    the same {!Fault.t} at the same pc — no timing, caching or engine
    configuration may change the outcome. Each machine runs one immutable
    {!Engine.t}, fixed at {!create}; every value honours this: the
    single-step path and the translation-block paths are differentially
    tested for bit-identical stop states (test/test_properties.ml), and
    SMILE recovery depends on it (the fault a partially-executed trampoline
    raises is the key into the fault-handling table). The contract holds
    with every fast path on or off: the software TLB ({!Memory}) and direct
    block chaining are caches of successful checks, never of outcomes a
    permission or code change could have altered. Faults are observable as
    [Fault_raised] events, and the translating engines emit
    [Tb_compile]/[Tb_hit]/[Tb_invalidate]/[Tb_chain]; see lib/obs and
    OBSERVABILITY.md. *)

type t

type stop =
  | Exited of int  (** The program issued the exit syscall. *)
  | Faulted of Fault.t  (** An unhandled deterministic fault. *)
  | Fuel_exhausted  (** The [fuel] instruction budget ran out. *)

type action =
  | Resume of int  (** Continue executing at the given pc. *)
  | Stop of stop

type handlers = {
  on_fault : t -> Fault.t -> action;
  on_ebreak : t -> pc:int -> size:int -> action;
      (** [ebreak]/[c.ebreak] executed; [size] distinguishes the two. *)
  on_ecall : t -> pc:int -> action;
      (** Syscall other than exit (exit is handled internally: a7 = 93). *)
  on_check : t -> pc:int -> rd:Reg.t -> target:int -> action;
      (** The custom-0 checked indirect jump was executed with the given
          untranslated [target]; the handler performs the translation. *)
}

val default_handlers : handlers
(** Halts on every event (faults become [Faulted], etc.). *)

val create :
  ?engine:Engine.t ->
  ?icache:Icache.geometry ->
  ?costs:Costs.t ->
  mem:Memory.t ->
  isa:Ext.t ->
  unit ->
  t
(** [engine] is the execution engine for the machine's whole life
    (default {!Engine.default}). [icache] attaches an {!Icache} model of
    that geometry, also for life: every fetch checks it and misses charge
    {!Costs.t.icache_miss} cycles. The model is a [Step]-engine feature:
    [create] raises [Invalid_argument] when [icache] is given with a
    [Translated] engine, whose multi-instruction units have no per-fetch
    accounting. The model is off by default — the headline numbers in
    EXPERIMENTS.md are produced without it; the ablation harness turns it
    on to show the microarchitectural side of trampoline overhead. *)

val engine : t -> Engine.t

val vlen_bytes : int
(** The vector register width in bytes: 32 (256 bits), on every hart.
    CHBP lays out its simulated vector registers ([Vregs]) with it. *)

(** {1 State access} *)

val mem : t -> Memory.t
val isa : t -> Ext.t
val set_isa : t -> Ext.t -> unit
val costs : t -> Costs.t

val pc : t -> int
val set_pc : t -> int -> unit

val get_reg : t -> Reg.t -> int64
val set_reg : t -> Reg.t -> int64 -> unit
val get_vreg : t -> Reg.v -> bytes
(** A copy of the 256-bit register contents. *)

val set_vreg : t -> Reg.v -> bytes -> unit
val vl : t -> int
val vsew : t -> Inst.sew

val set_vstate : t -> vl:int -> vsew:Inst.sew -> unit
(** Restore the vector CSR state (used when migrating a task between
    harts/views). *)

val switch_view : t -> Memory.t -> unit
(** Point the hart at a different address-space view (MMView switch). The
    decode and translation-block caches are per-view and switch with it.
    The machine keeps a small LRU of views: a view evicted from it only
    loses its caches (rebuilt on demand), never architectural state. *)

val invalidate_code : t -> addr:int -> len:int -> unit
(** Invalidate cached decodes and translation blocks overlapping a patched
    code range, in every view seen so far (physical pages may be shared
    between views). O(pages patched): bumps page-granular generation
    counters; stale entries fail their stamp check on next use. *)

(** {1 Counters} *)

val icache_misses : t -> int
(** Misses so far (0 when the model is off). *)

val retired : t -> int
(** Instructions retired. *)

val vector_retired : t -> int

val indirect_retired : t -> int
(** Register-indirect jumps/calls/returns retired — the flows prior binary
    rewriters must check or rebound on every execution. *)

val cycles : t -> int
(** Retired-instruction cycles plus charged penalties. *)

val charge : t -> int -> unit
(** Add penalty cycles (used by runtime handlers for traps, checks, ...). *)

val reset_counters : t -> unit

(** {1 Execution} *)

val run : ?handlers:handlers -> fuel:int -> t -> stop
(** Execute until a stop event, at most [fuel] instructions.

    The machine's {!Engine.t} picks the path. [Step] interprets one
    instruction at a time. [Translated] decodes code once into arrays of
    closures ({!Tblock}), executes them whole between handler-visible
    events and chains each block to its successors (the fall-through, the
    terminator's other target and every side exit keep a link of their
    own; register-indirect jumps go through per-site inline caches). It
    translates an entry on first touch.
    Counters, faults and handler interactions are observably identical to
    the single-step path (the differential property tests assert this).

    With {!Metrics.enabled}, each completed run adds what it retired,
    dispatched, translated and optimized to the process-wide [chimera_*]
    counters (OBSERVABILITY.md lists them); take {!Metrics.Snapshot}
    deltas around a workload to count it. *)

val step : ?handlers:handlers -> t -> stop option
(** Execute one instruction; [None] means it retired normally. Always uses
    the single-step path. *)

(** {1 Instrumentation} *)

val set_profile : t -> Profile.t option -> unit
(** Attach (or detach) a guest profiler. With a profile attached, both
    engines attribute every dispatch to a per-block row: translated code
    with one table update per block (static mix x dispatch counts, see
    lib/prof), the step engine per instruction through the same rows — the
    totals are bit-identical between engines. Machines pick up
    [Profile.global ()] at creation, so setting the global before building
    a workload profiles it without further plumbing. *)

val profile : t -> Profile.t option
(** The attached profiler, if any. Runtime handlers use it to attribute
    [Fault_recovered]/[Trap_taken] to the enclosing block
    ([Profile.note_recovered]/[note_trap]). *)

(** {1 Block / inline-cache introspection}

    Snapshots of the current view's block table and inline-cache sites, for
    the CLI's profile report (inline caches) and for tests. *)

val block_entries : t -> int list
(** The entry pc of every cached block in the current view, unordered. *)

type ic_info = {
  ici_site : int;
  ici_state : [ `Empty | `Mono | `Poly | `Mega ];
  ici_targets : int;  (** distinct targets cached (0 once megamorphic) *)
  ici_hits : int;
  ici_misses : int;
}

val ic_infos : t -> ic_info list
(** One entry per inline-cache site in the current view, unordered. *)

(** {1 Persistent translation plans}

    A recording machine (one whose {!Engine.t} has [record] set) keeps,
    next to every translated block, the replay skeleton of the translation
    that produced it: the positional sequence of lower/compile decisions
    with the post-optimize IR ops. {!export_plan} joins those skeletons
    with the inline-cache targets into a closure-free, [Marshal]-safe
    value; {!seed_plan} replays one into a fresh machine so a warm start
    re-emits execution units directly — no IR lowering, no optimizer
    passes. A plan carries no decoded instructions: the replay decodes each
    block's instructions from the guest's bytes, without the TLB or the
    decode cache, and later decodes (cold translation, the step path) fill
    the decode cache on demand, as on a cold machine. A replay also yields
    a {!template} from which {!seed_template} seeds further machines with
    the same plan without replaying it at all.

    Soundness contract: a plan carries no byte checksums of its own. The
    caller (the [lib/cache] content-addressed store) must only offer a plan
    to a machine whose guest code bytes digest to the key the plan was
    stored under — the digest is taken {e after} the exporting run, so
    self-modifying programs produce a key no pristine load ever matches and
    their entries become unreachable rather than wrong. *)

type plan
(** Marshalable translation plan (no closures; contains only IR ops and
    pcs). *)

val export_plan : t -> plan
(** Snapshot the current view's replayable state: every epoch-valid block
    that has a recorded skeleton, and non-megamorphic inline-cache
    targets. *)

type template
(** What one {!seed_plan} seeded, taken before the machine ran: its blocks
    (without links, run state or terminator closures), their replay
    skeletons and inline-cache seeds. Never executed or mutated: one
    template may seed machines on several domains at once. *)

val seed_plan : t -> plan -> (int * template option, string) result
(** Replay a plan into this machine: rebuild and publish every block,
    decoding from the guest's bytes with {!Memory.fetch_u16}'s permission
    checks, and retrain inline caches. The replay counts no TLB access and
    leaves the decode cache empty. Returns [Ok (n, template)] with the
    number of blocks seeded and, when every block replayed, a {!template}
    of them taken before any run; [Error "flags"] if the plan was exported
    under a different {!Engine.t} — nothing is seeded
    and the caller should fall back cold. A block whose replay diverges
    (which the content-digest contract makes unexpected) is skipped, not
    published; execution then translates it on demand. *)

val seed_template : t -> template -> (int, string) result
(** Seed this machine from a template: the same blocks, inline caches,
    counters and [Obs] events as {!seed_plan} of the template's plan,
    without the replay, and likewise no TLB access and an empty decode
    cache. Each block is a {!Tblock.clone}:
    its execution units are shared with the template (their closures take
    the machine as an argument), and its terminator is recompiled for this
    machine, because an indirect terminator captures its machine's
    inline-cache site. [Error "flags"] or [Error "isa"], with nothing
    seeded, when the machine's engine or ISA differs from that of
    the machine the template was taken on. *)

val plan_stats : plan -> int
(** The number of blocks in a plan — for cache telemetry. *)
