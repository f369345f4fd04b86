(** Control-flow graph over disassembled instructions.

    Blocks are maximal straight-line instruction runs; successors are block
    start addresses or [Sunknown] when control leaves through an indirect
    jump or return (binary-level CFG recovery cannot resolve those — the
    limitation at the heart of the paper's correctness problem). *)

type succ =
  | Sblock of int
  | Sunknown  (** indirect jump — arbitrary continuation *)
  | Sreturn
      (** function return — the continuation is the caller, which by the
          ABI may observe only [a0]/[a1] and the callee-saved registers *)

type block = {
  b_addr : int;
  b_insns : Disasm.insn list;  (** in address order, non-empty *)
  b_succs : succ list;
  b_call : int option;  (** direct call target if the block ends in a call *)
}

type t
(** A CFG fills itself in lazily: {!of_disasm} cuts the blocks into flat
    arrays, and a block's record (its instruction list and successors) and
    the predecessor table are built and kept the first time a query asks
    for them. So a [t] is mutable even behind read-only queries: it is a
    single-domain value, and two domains must not query one [t]. [Chbp]
    builds one per rewrite or lazy extension and keeps none in a
    [Chbp.t], so concurrent rewrites share no CFG. *)

val of_disasm : Disasm.t -> t

val blocks : t -> block list
(** Ascending by address. *)

val block_at : t -> int -> block option
(** Block starting exactly at the address. *)

val block_containing : t -> int -> block option
(** Block whose instruction range contains the address of an instruction. *)

val block_end : block -> int
(** Address one past the last instruction. *)

val preds : t -> int -> int list
(** Addresses of predecessor blocks of the block starting at [addr]. *)

(** {2 Dense view}

    Blocks are numbered [0 .. block_count t - 1] in address order and
    instructions by their position in address order. A solver that reads
    the graph through these builds no block records ({!Liveness}). *)

val block_count : t -> int

val block_first : t -> int -> int
(** Position of the block's first instruction; [block_first t (block_count
    t)] is the instruction count. *)

val position : t -> int -> int
(** Position of the instruction at the address, or [-1]. *)

val block_of_position : t -> int -> int

val insn_at : t -> int -> Disasm.insn
(** Decoded again from the binary's bytes on every call. *)

val flow_at : t -> int -> Disasm.flow
(** Rebuilt from the stored kind and target. *)

val kind_at : t -> int -> Disasm.kind

val uses_at : t -> int -> Regmask.t
val defs_at : t -> int -> Regmask.t
(** [Inst.uses_mask] and [Inst.defs_mask] of the instruction, stored when
    the graph was cut: no decoding, and no call convention applied. *)

val ext_at : t -> int -> Ext.ext option
(** The extension the instruction requires. *)

val succ : t -> int -> int -> int
(** [succ t b j] is block [b]'s successor [j] ([0] or [1]): a block index,
    or {!unknown}, {!return} or {!no_succ}. The successors that are not
    [no_succ] are [b_succs] in order. *)

val unknown : int
val return : int
val no_succ : int

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering: one node per basic block (instruction listing),
    edges for direct successors, dashed self-loop markers for unknown
    continuations. *)
