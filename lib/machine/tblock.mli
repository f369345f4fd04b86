(** Translation superblocks: instruction runs pre-decoded and compiled into
    closure arrays, with cheap page-granular invalidation.

    A superblock starts at an entry pc and extends past direct control flow:
    the machine may compile a direct jump as an inlined transfer (decoding
    continues at the target) and a conditional branch as an inlined guard
    whose taken path leaves the block through a side exit (decoding
    continues at the fall-through). The run ends at the first event
    instruction (kept, decoded, as the block's terminator), at an
    instruction the machine cannot put on the fast path, when the per-block
    page set would exceed its cap, or at the instruction-count cap.

    Straight-line instructions are lowered into the linear IR ({!Tir}) and
    buffered as a run; at every block event the run is handed to the
    machine's [emit] callback, which optimizes it whole (constant
    propagation, dead-write elimination) and returns execution units, each
    covering one or more instructions. The per-instruction metadata
    ([pcs]/[classes]) is kept exact per instruction regardless of
    how the emitter groups — [starts] maps units back to instruction
    indices so fuel, faults and profiler prefix walks stay bit-exact.

    Blocks are validated against a {!Gen} generation table: patching code
    bumps the generations of the covered pages, and any block (or cached
    decode) overlapping a bumped page fails its stamp check and is
    re-translated — invalidation costs O(pages patched), never a cache
    scan. A block records every page its bytes span, so cross-page blocks
    keep invalidation page-granular.

    The module is parameterized over the machine state ['m]; the machine
    supplies decoding and per-instruction compilation, this module owns
    block layout, termination policy, and invalidation bookkeeping. *)

module Gen : sig
  type t
  (** Page-granular generation counters (monotonic), stored in a growable
      flat array keyed by page index: stamping is plain array sums on the
      post-epoch-bump revalidation path, no hashing. *)

  val create : unit -> t

  val bump : t -> addr:int -> len:int -> unit
  (** Increment the generation of every page overlapping [addr, addr+len). *)

  val stamp : t -> lo:int -> hi:int -> int
  (** Sum of the generations of the pages covering [lo, hi] (inclusive).
      Generations only grow, so equal stamps over the same range mean no
      covered page changed. *)

  val stamp_pages : t -> int array -> int
  (** Sum of the generations of an explicit page-index set (a block's
      [pages]); same monotonicity argument as {!stamp}. *)
end

type 'm compiled =
  | Op of ('m -> unit)
      (** Straight-line: executes the instruction; the retired counter is
          credited in bulk by the dispatch loop (see [auto]). *)
  | Op_self of ('m -> unit)
      (** Straight-line like [Op], but the closure retires internally
          (vector / interpreter-fallback instructions); excluded from
          [auto]. *)
  | Jump of ('m -> unit) * int
      (** Inlined direct jump: the closure transfers to the static target
          (the [int]) and retires; decoding continues at the target. *)
  | Brcond of ('m -> unit)
      (** Inlined conditional branch: the closure retires and either falls
          through or leaves the block via the machine's side-exit exception;
          decoding continues at the fall-through. *)
  | Term  (** Event instruction: ends the block, kept decoded. *)
  | Term_fn of ('m -> unit)
      (** Terminator proven event-free at translation time (direct call,
          indirect jump under the C extension, branch with aligned
          targets): the closure transfers control, retires and cannot
          fault, so the dispatch loop may run it directly instead of going
          through the decoded-instruction event path. The decoded pair is
          still recorded in [term] as the slow-path/oracle fallback. *)
  | Stop  (** Not executable on the fast path (e.g. unsupported extension). *)

type 'm t = private {
  entry : int;
  pages : int array;  (** deduplicated page indices the block's bytes span *)
  isa : Ext.t;
  stamp : int;
  ops : ('m -> unit) array;
      (** execution units; a unit may cover several instructions *)
  starts : int array;
      (** unit [u]'s first body-instruction index; length
          [Array.length ops + 1], last entry = body instruction count *)
  auto : int array;
      (** number of auto-retired instructions in units [0, u) —
          straight-line units whose closures leave the retired counter to
          the dispatch loop; same length as [starts] *)
  pcs : int array;
  term : (Inst.t * int) option;
  term_fn : ('m -> unit) option;
      (** compiled event-free terminator (see {!Term_fn}); [term] still
          holds the decoded pair for the interpreter's event path *)
  fall : int;
      (** pc where decoding stopped (fall-through of the last decoded
          instruction, or an inlined trailing jump's target) *)
  classes : Bytes.t;
      (** {!Profile.class_code} of each body instruction, computed once at
          translation — the static instruction mix the profiler multiplies
          by dynamic dispatch counts; exact per instruction even under
          fusion *)
  term_class : int;  (** class code of the terminator, -1 if none *)
  n_jumps : int;  (** inlined direct jumps in the body *)
  n_branches : int;  (** inlined conditional branches (potential side exits) *)
  n_fused : int;
      (** instructions beyond the first in multi-instruction units —
          Σ (unit width − 1) over the body *)
  mutable echeck : int;
      (** code epoch at the last successful validation ({!revalidate}) *)
  mutable link_fall : 'm t option;
      (** direct-chained successor at [fall] (set via {!set_link_fall}) *)
  mutable link_taken : 'm t option;
      (** direct-chained successor at any other terminator target
          ({!set_link_taken}) *)
  mutable link_exits : 'm t option array;
      (** direct-chained successor of each side exit, indexed by the unit
          that raised it ({!set_link_exit}); [[||]] until the block's first
          side exit *)
  mutable prow : Profile.row option;
      (** cached profiler row for [entry] (set via {!set_prow}); valid only
          while [Profile.row_live] holds for the machine's profile *)
  mutable cell : 'm t option;
      (** [Some] of the block itself, made once by {!translate} and
          {!clone} and never changed after: links, inline caches and the
          dispatch loop store and return this cell, so a dispatch that
          misses its link allocates no option *)
}

val translate :
  ?max_insts:int ->
  ?max_pages:int ->
  gens:Gen.t ->
  epoch:int ->
  isa:Ext.t ->
  decode:(int -> (Inst.t * int) option) ->
  lower:(pc:int -> Inst.t -> int -> Tir.op option) ->
  compile:(pc:int -> Inst.t -> int -> 'm compiled) ->
  emit:((('m -> unit) -> int -> unit) -> Tir.op array -> unit) ->
  int ->
  'm t
(** [translate ~gens ~epoch ~isa ~decode ~lower ~compile ~emit entry]
    decodes the superblock at [entry].
    [decode pc] returns [None] when the bytes at [pc] cannot be decoded or
    fetched (the block ends there; the slow path will raise the precise
    fault when execution reaches it).
    [lower] turns a straight-line instruction into an IR op ([None] routes
    it to [compile] instead — control flow, terminators, instructions the
    machine keeps on its legacy path). Buffered IR runs are flushed
    through [emit push ops] at every block event; [emit] hands the run's
    execution units to [push f width] in order, and their widths must sum
    to the run's instruction count. An IR unit leaves retirement to the
    dispatch loop's bulk credit through [auto]. [epoch] is the machine's current code epoch,
    recorded as the block's initial [echeck]. *)

val revalidate : Gen.t -> isa:Ext.t -> epoch:int -> 'm t -> bool
(** Validity check with an epoch fast path: a block whose [echeck] equals
    the current code epoch is valid with a single compare; otherwise the
    full capability + page-set-stamp check runs and, on success, [echeck]
    is refreshed. A [false] block must be re-translated — and must {e not}
    have its [echeck] refreshed by other means, since chain links rely on a
    stale [echeck] never matching again (epochs only grow). *)

val clone : Gen.t -> epoch:int -> term_fn:('m -> unit) option -> 'm t -> 'm t
(** [clone gens ~epoch ~term_fn b] is a new block sharing [b]'s immutable
    parts (units, per-instruction metadata, page set, decoded terminator)
    with [term_fn] as its compiled terminator, stamped against [gens] and
    validated at [epoch]. Links and the profiler row start empty. A persisted
    plan's blocks are cloned this way into every machine the plan seeds. *)

val epoch_current : 'm t -> int -> bool
(** [epoch_current b epoch] is [b.echeck = epoch]: the chain-follow guard —
    no stamp re-summation, no table walk. *)

val set_link_fall : 'm t -> 'm t -> unit
val set_link_taken : 'm t -> 'm t -> unit

val set_link_exit : 'm t -> int -> 'm t -> unit
(** [set_link_exit b u next] records [next] as the successor of the side
    exit raised by unit [u], sizing [link_exits] on first use;
    out-of-range units are ignored. A unit's side exit always lands on the
    same static target, so each exit keeps its own link instead of
    sharing [link_taken] with the terminator and the other exits.

    Links are hints, not invariants: every follow is guarded by entry-pc
    equality and {!epoch_current}, and a failed guard falls back to the
    block table and overwrites the link. *)

val set_prow : 'm t -> Profile.row option -> unit
(** Cache the profiler row for this block (the record is private; this is
    the one sanctioned mutation of [prow]). *)

val body_length : 'm t -> int
(** Body instruction count (not unit count — fusion does not change it). *)

val degenerate : 'm t -> bool
(** No body and no terminator: the entry instruction must be executed via
    the slow path (illegal, unsupported, or unmapped). *)
