(** Linear IR for translation-block bodies.

    [Tblock.translate] lowers each straight-line instruction into one
    {!op} — a typed operation over guest registers with explicit read/write
    sets and fault capability — instead of compiling it directly to a
    closure. Runs of ops are optimized as a unit ({!optimize}) and only
    then emitted back to the machine as closures, so the emitter sees the
    whole straight-line region at once:

    - {b register caching}: a register whose value is known at translation
      time (materialized by [lui]/[li]/[auipc] chains, or computed from
      other known registers) is substituted into later readers as a
      constant, and pure ops over known operands fold to {!Kconst} — the
      run-time closure performs no register reads and no [Int64]
      arithmetic at all;
    - {b dead-write elimination}: a pure op whose destination is
      overwritten before any read, fault-capable op, or observable point
      is rewritten to {!Kdead} (its retirement is still credited — only
      the effect disappears);
    - {b pc-write elision} is decided over the same representation by the
      machine's emitter: ops proven unable to fault never write [t.pc].

    The IR is deliberately tiny: only instructions the block engine
    executes as straight-line units are lowered ({!lower} returns [None]
    for control flow, system and vector/SIMD instructions — those keep
    their PR5 compilation paths). Soundness of cross-op facts rests on the
    dispatch discipline documented in machine.ml: a block's units are only
    ever executed from its entry, in order, within one dispatch, and every
    observable point (fault, side exit, fuel split, terminator) either
    ends the dispatch or falls on a unit boundary. *)

(** One lowered operation. Constant propagation rewrites pure ops toward
    {!Kaluc} (one operand replaced by a translation-time value) and
    ultimately {!Kconst}/{!Kdead}; loads and stores keep their register
    operands. *)
type kind =
  | Kconst of Reg.t * int64  (** [rd <- v]: fully folded. *)
  | Kmv of Reg.t * Reg.t  (** [rd <- rs]. *)
  | Kalu of Inst.alu_op * Reg.t * Reg.t * Reg.t  (** [rd <- rs1 op rs2]. *)
  | Kaluc of Inst.alu_op * Reg.t * Reg.t * int64
      (** [rd <- rs1 op c]: one operand resolved to a constant (the other
          was swapped into position for commutative ops). *)
  | Kalui of Inst.alui_op * Reg.t * Reg.t * int  (** [rd <- rs1 op imm]. *)
  | Kload of
      { width : Inst.mem_width; unsigned : bool; rd : Reg.t; base : Reg.t; off : int }
  | Kstore of { width : Inst.mem_width; rs2 : Reg.t; base : Reg.t; off : int }
  | Kdead
      (** No effect (canonical nops, x0-destination ops, eliminated dead
          writes). Still occupies its instruction slot: retirement, fuel
          and profiler metadata stay exact per instruction. *)

type op = { opc : int; osize : int; mutable k : kind }
(** [opc]/[osize] are the guest pc and encoded size — kept per op so fault
    pcs, fuel resume points and profiler classes never depend on what the
    passes did to [k]. *)

val lower : pc:int -> Inst.t -> int -> op option
(** Lower one decoded instruction, or [None] if it is not a straight-line
    candidate (control flow, system, vector/packed-SIMD — the machine's
    legacy compile path handles those). The caller is responsible for
    capability gating: only instructions the current hart supports may be
    lowered. *)

val faultable : kind -> bool
(** Can the op raise (memory access)? Fault-capable ops are barriers for
    dead-write elimination and the only ops that must write [t.pc]. *)

val reads : kind -> int
val writes : kind -> int
(** Guest registers read/written as bitmasks over register indices (bit 0,
    x0, never appears in [writes]). *)

(** {1 Evaluators}

    The single source of truth for ALU semantics: the interpreter, the
    legacy closure compiler and constant folding all call these, so a
    folded result is bit-identical to the step engine's. *)

val sext32 : int64 -> int64
val bool64 : bool -> int64
val mulh : int64 -> int64 -> int64
val alu : Inst.alu_op -> int64 -> int64 -> int64
val alui : Inst.alui_op -> int64 -> int -> int64

(** {1 Translation-time register state}

    Which guest registers hold known values at the current lowering point.
    One [state] lives for one block translation: the machine threads it
    through successive {!optimize} calls (one per straight-line run) and
    clobbers or updates it across the non-IR units in between. x0 is
    always known and always 0. *)

type state

val state_create : unit -> state
val state_reset : state -> unit
(** Forget everything (except x0). Used at block entry. *)

val state_clobber : state -> unit
(** Alias of {!state_reset}, used when a non-IR unit with unknown register
    effects (vector, interpreter fallback) executes between runs. *)

val state_learn : state -> Reg.t -> int64 -> unit
(** Record that a register holds a known value (e.g. the static link
    value written by an inlined [jal]). *)

val state_forget : state -> Reg.t -> unit

(** {1 Pass statistics} *)

type stats = {
  mutable s_folded : int;  (** ops rewritten to [Kconst] by folding *)
  mutable s_dead : int;  (** ops killed by dead-write elimination *)
  mutable s_cached : int;
      (** operand reads served from translation-time constants instead of
          run-time register-file reads *)
  mutable s_pc_elided : int;
      (** lowered ops emitted without a [t.pc] write (an eager-pc
          translator would write pc before every instruction) *)
}

val stats_create : unit -> stats

val optimize : state -> stats -> op array -> unit
(** Optimize one straight-line run in place: forward constant propagation
    (updating [state]), then backward dead-write elimination with
    fault-capable ops as barriers — a kill therefore never spans an
    observable point, because every observable point inside a block body
    is adjacent to a fault-capable op or a run boundary. *)
