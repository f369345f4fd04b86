(** Recursive-descent disassembler.

    Starting from the entry point and every function symbol, control flow is
    followed through direct branches, jumps and calls. Like the paper's use
    of IDA Pro (§4.1), the result is *correct but not complete*: code
    reachable only through indirect jumps (jump tables, function pointers)
    with no symbol is not discovered. Chimera recovers such instructions
    lazily at runtime when they fault.

    Discovery keeps no [Inst.t]: each instruction's analysis facts (size,
    flow kind, direct target, required extension, register masks) are
    stored unboxed when it is found, and an {!insn} is decoded again from
    the binary's section bytes whenever a query returns one. Those bytes
    must not change while the [t] is in use. *)

type insn = { addr : int; inst : Inst.t; size : int }

(** Static control flow out of an instruction. *)
type flow =
  | Fallthrough
  | Branch of int  (** conditional; also falls through *)
  | Jump of int  (** unconditional direct *)
  | Call of int  (** direct call; resumes at the next instruction *)
  | Indirect_jump  (** [jr]/[jalr x0] — unknown target *)
  | Indirect_call  (** [jalr ra, ...] — unknown target, resumes after *)
  | Ret  (** [jalr x0, 0(ra)] *)
  | Syscall  (** [ecall] — falls through *)
  | Halt  (** [ebreak] *)

val flow_of : insn -> flow

(** The shape of a {!flow}, without its target. *)
type kind =
  | K_fallthrough
  | K_branch
  | K_jump
  | K_call
  | K_indirect_jump
  | K_indirect_call
  | K_ret
  | K_syscall
  | K_halt

val kind_of : insn -> kind

val flow_of_kind : kind -> target:int -> flow
(** The flow of that kind; [target] is read only by [K_branch], [K_jump]
    and [K_call]. *)

val kind_code : kind -> int
(** The kind as an integer in [0 .. 8], for storing kinds in bytes. *)

val kind_of_code : int -> kind

type t

val of_binfile : Binfile.t -> t
(** Disassemble from the entry point and all symbols. *)

val of_binfile_at : Binfile.t -> roots:int list -> t
(** Disassemble from explicit roots only. *)

val find : t -> int -> insn option
(** The instruction starting at an address, if discovered. *)

val at : t -> int -> insn
(** [find], for an address known to start an instruction.
    @raise Not_found if none was discovered there. *)

val ordinal : t -> int -> int
(** The rank of the instruction starting at the address among all
    discovered instructions in ascending address order ([0 .. count t - 1]),
    or [-1]. *)

val target_at : t -> int -> int
(** The direct target of the branch, jump or call starting at the address.
    @raise Not_found if no instruction was discovered there. *)

val uses_at : t -> int -> int
val defs_at : t -> int -> int
(** [Inst.uses_mask] and [Inst.defs_mask] of the instruction starting at
    the address, without decoding it.
    @raise Not_found if no instruction was discovered there. *)

val ext_at : t -> int -> Ext.ext option
(** The extension the instruction starting at the address requires
    ([None] for the base ISA, or when nothing was discovered there). *)

val is_covered : t -> int -> bool
(** Whether the address falls inside any discovered instruction. *)

val to_list : t -> insn list
(** All discovered instructions in ascending address order. *)

val iter : t -> (insn -> unit) -> unit

val iter_facts :
  t ->
  (addr:int ->
  size:int ->
  kind:kind ->
  target:int ->
  ext:Ext.ext option ->
  uses:int ->
  defs:int ->
  unit) ->
  unit
(** Every discovered instruction's stored facts, in ascending address
    order, with nothing decoded: [target] is the direct target (meaningful
    for [K_branch], [K_jump] and [K_call]), [uses] and [defs] are
    [Inst.uses_mask] and [Inst.defs_mask]. For passes over the whole
    binary. *)

val count : t -> int
val covered_bytes : t -> int

val next_insn : t -> int -> insn option
(** The discovered instruction immediately following the one at [addr]
    (i.e. at [addr + size]), if any. *)

val pp_insn : Format.formatter -> insn -> unit
