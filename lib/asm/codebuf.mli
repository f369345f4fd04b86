(** Relocatable code buffer.

    A [Codebuf.t] accumulates instructions and data with label references;
    {!link} fixes the base address, resolves labels (internal ones first,
    then through the caller's resolver) and returns the final bytes. Both the
    program assembler ({!Asm}) and the rewriters (emitting
    target-instruction blocks at congruence-constrained addresses) build on
    it. *)

type t

val create : unit -> t

val size : t -> int
(** Bytes emitted so far (== the offset of the next emission). *)

val inst : t -> Inst.t -> unit
(** Emit a fixed instruction. *)

val insts : t -> Inst.t list -> unit

val name : string -> int -> string
(** [name pfx n] is [pfx ^ string_of_int n] for [n >= 0], built in one
    allocation: a label name. *)

val label : t -> string -> unit
(** Bind a label to the current offset. @raise Invalid_argument if bound. *)

val has_label : t -> string -> bool

val label_offset : t -> string -> int
(** Offset a label was bound at. @raise Not_found *)

(** {1 Label-referencing instructions} *)

val branch_l : t -> Inst.branch_cond -> Reg.t -> Reg.t -> string -> unit
val jal_l : t -> Reg.t -> string -> unit

val j_l : t -> string -> unit
(** [jal x0]. *)

val cj_l : t -> string -> unit
val cbeqz_l : t -> Reg.t -> string -> unit
val cbnez_l : t -> Reg.t -> string -> unit

val la_l : t -> Reg.t -> string -> unit
(** Materialize a label's absolute address: [lui rd, hi; addi rd, rd, lo]. *)

val lui_hi_l : t -> Reg.t -> string -> unit
(** Just the [lui rd, hi] half (the Fig. 5 static-data idiom). *)

val addi_lo_l : t -> Reg.t -> string -> unit
(** Just the [addi rd, rd, lo] half. *)

val load_lo_l : t -> Inst.mem_width -> rd:Reg.t -> base:Reg.t -> string -> unit
(** [load rd, lo(label)(base)] — the second half of a [lui]+load static
    access. *)

(** {1 Absolute-target instructions (resolved against the link base)} *)

val jal_abs : t -> Reg.t -> int -> unit
val branch_abs : t -> Inst.branch_cond -> Reg.t -> Reg.t -> int -> unit

val vanilla_jump_abs : t -> Reg.t -> int -> unit
(** RISC-V's vanilla long-distance trampoline: [auipc rd, hi(Δ); jalr x0,
    lo(Δ)(rd)] — ±2 GiB pc-relative reach, clobbers [rd]. *)

val vanilla_jump_l : t -> Reg.t -> string -> unit

(** {1 Other helpers} *)

val li : t -> Reg.t -> int -> unit
(** Materialize a constant (|v| < 2^31). 1–2 instructions. *)

val la_abs : t -> Reg.t -> int -> unit
(** Materialize an absolute address: [lui], then [addi] unless the low 12
    bits are zero (4 or 8 bytes). *)

val byte : t -> int -> unit
val u16 : t -> int -> unit
val u32 : t -> int -> unit
val u64 : t -> int64 -> unit
val space : t -> int -> unit

val pad_to : t -> int -> unit
(** Zero-pad the buffer so its size becomes exactly the given offset.
    @raise Invalid_argument if the buffer is already larger. *)

val dword_label : t -> string -> unit
(** 8-byte absolute address of a label (jump-table entry). *)

val exts : t -> Ext.t
(** Union of extensions required by the emitted instructions. *)

val link : t -> base:int -> resolve:(string -> int option) -> bytes
(** Fix the base address and patch every reference. Internal labels take
    precedence over [resolve].
    @raise Invalid_argument on an unresolvable label or an out-of-range
    offset (e.g. a compressed branch beyond ±256 B). *)
