(** Register liveness over a binary CFG.

    Backward dataflow with the conservative assumptions binary rewriters must
    make (paper §4.2, citing the limits of binary data-flow analysis):

    - a block ending in an indirect jump or return has every register live
      out (the continuation is unknown);
    - a direct call uses the argument registers and defines the caller-saved
      set (ABI contract); its unknown callee body is not inspected.

    These assumptions are what make the *traditional* dead-register search
    fail at ~36% of patch sites in the paper's Table 3; CHBP's exit-position
    shifting then recovers almost all of them. *)

type t
(** Liveness is solved on demand. {!compute} only sizes per-block state;
    the first query that lands in a block solves the forward closure of
    that block (the blocks reachable from it, minus those already solved)
    to its least fixpoint and keeps the result. Answers are the same
    whatever order queries arrive in. A [t], and the {!Cfg.t} it reads, is
    mutable behind its queries: it is a single-domain value. [Chbp] keeps
    none in a [Chbp.t]. *)

val compute : Cfg.t -> t

val live_out : t -> int -> Regmask.t
(** Live-out mask of the block starting at the address.
    @raise Not_found if no such block. *)

val live_in_at : t -> int -> Regmask.t option
(** Registers live immediately before the instruction at the address
    (the first query inside a block walks it backward once and keeps every
    instruction's live-in); [None] if the address is not a known
    instruction. *)

val dead_at : t -> ?avoid:Reg.t list -> int -> Reg.t option
(** A register that is not live before the instruction at the address and is
    safe for a trampoline to clobber. Never returns [x0], [sp], [gp] or
    [tp]; prefers temporaries. [avoid] excludes further registers. *)

val dead_regs_at : t -> ?avoid:Reg.t list -> int -> Reg.t list
(** Every register not live before the instruction at the address that a
    rewriter may clobber (never [x0]/[sp]/[gp]/[tp]); empty if the address
    is unknown. Used to translate without unnecessary stack spills. *)

val insn_uses : Disasm.insn -> Regmask.t
val insn_defs : Disasm.insn -> Regmask.t
(** Per-instruction transfer masks, including the ABI call convention. *)

val uses_at : Cfg.t -> int -> Regmask.t
val defs_at : Cfg.t -> int -> Regmask.t
(** The same masks for the instruction at a CFG position, from the facts
    the CFG stores: nothing is decoded. The solver folds these. *)
