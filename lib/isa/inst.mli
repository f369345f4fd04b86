(** Instruction AST of the simulated RV64 machine.

    The subset covers what the paper's system needs: the RV64IM base (ALU,
    loads/stores, branches, jumps, system), the C extension (2-byte
    instructions, which create the extra trampoline entry points P2/P3 of
    paper Fig. 4b), the V extension (the paper's running example of an ISAX
    extension: strided loads/stores and arithmetic over 256-bit registers),
    the Zba/Zbb bit-manipulation extension (the paper's upgrade example
    [sh1add]), and one custom-0 instruction used by the Safer baseline to
    model its inlined indirect-jump checks. *)

type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu

type mem_width = B | H | W | D
(** 1, 2, 4 and 8-byte memory accesses. *)

(** Register-register ALU operations (RV64IM + Zba/Zbb). *)
type alu_op =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Mul | Mulh | Div | Divu | Rem | Remu
  | Addw | Subw | Sllw | Srlw | Sraw | Mulw | Divw | Remw
  | Sh1add | Sh2add | Sh3add
  | Andn | Orn | Xnor | Min | Max | Minu | Maxu

(** Register-immediate ALU operations. *)
type alui_op =
  | Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai
  | Addiw | Slliw | Srliw | Sraiw

(** The C1 misc-alu two-address operations (x8..x15 register file). *)
type c_alu_op = Csub | Cxor | Cor | Cand | Csubw | Caddw

(** Vector element width selected by [vsetvli]. *)
type sew = E8 | E16 | E32 | E64

val sew_bytes : sew -> int
val sew_name : sew -> string

(** Vector arithmetic operations; [Vmacc] is the multiply-accumulate
    [vd <- vd + vs1*vs2] used by the GEMM kernels. *)
type vop = Vadd | Vsub | Vmul | Vmacc

type t =
  | Lui of Reg.t * int  (** [Lui (rd, imm20)]: rd <- sext(imm20 << 12). *)
  | Auipc of Reg.t * int  (** [Auipc (rd, imm20)]: rd <- pc + sext(imm20 << 12). *)
  | Jal of Reg.t * int  (** [Jal (rd, off)]: byte offset, ±1 MiB, even. *)
  | Jalr of Reg.t * Reg.t * int  (** [Jalr (rd, rs1, simm12)]. *)
  | Branch of branch_cond * Reg.t * Reg.t * int  (** byte offset, ±4 KiB. *)
  | Load of { width : mem_width; unsigned : bool; rd : Reg.t; rs1 : Reg.t; imm : int }
  | Store of { width : mem_width; rs2 : Reg.t; rs1 : Reg.t; imm : int }
  | Op of alu_op * Reg.t * Reg.t * Reg.t  (** [Op (op, rd, rs1, rs2)]. *)
  | Opi of alui_op * Reg.t * Reg.t * int  (** [Opi (op, rd, rs1, imm)]. *)
  | Ecall
  | Ebreak
  (* Compressed (2-byte) instructions. *)
  | C_nop
  | C_ebreak
  | C_addi of Reg.t * int  (** rd <- rd + imm6, rd <> x0. *)
  | C_li of Reg.t * int  (** rd <- imm6. *)
  | C_mv of Reg.t * Reg.t  (** rd <- rs2, rs2 <> x0. *)
  | C_add of Reg.t * Reg.t  (** rd <- rd + rs2, both <> x0. *)
  | C_j of int  (** byte offset, ±2 KiB. *)
  | C_jr of Reg.t  (** pc <- rs1, rs1 <> x0. *)
  | C_jalr of Reg.t  (** ra <- pc+2; pc <- rs1. *)
  | C_beqz of Reg.t * int  (** rs1 in x8..x15; offset ±256 B. *)
  | C_bnez of Reg.t * int
  | C_ld of Reg.t * Reg.t * int  (** [C_ld (rd', rs1', uimm)], regs in x8..x15. *)
  | C_sd of Reg.t * Reg.t * int
  | C_lw of Reg.t * Reg.t * int  (** 32-bit load, sign-extending; regs in x8..x15. *)
  | C_sw of Reg.t * Reg.t * int
  | C_lui of Reg.t * int  (** rd <- sext(imm6 << 12); rd not x0/x2, imm <> 0. *)
  | C_addiw of Reg.t * int  (** rd <- sext32(rd + imm6), rd <> x0. *)
  | C_andi of Reg.t * int  (** rd' <- rd' & imm6, rd' in x8..x15. *)
  | C_alu of c_alu_op * Reg.t * Reg.t
      (** [C_alu (op, rd', rs2')]: two-address ALU over x8..x15. *)
  | C_slli of Reg.t * int
  (* Vector (V extension). *)
  | Vsetvli of Reg.t * Reg.t * sew
      (** [Vsetvli (rd, rs1, sew)]: vl <- min(rs1, VLEN/sew); rd <- vl.
          LMUL is fixed to 1 in this subset. *)
  | Vle of sew * Reg.v * Reg.t  (** unit-stride vector load from [rs1]. *)
  | Vlse of sew * Reg.v * Reg.t * Reg.t
      (** [Vlse (sew, vd, rs1, rs2)]: strided load, byte stride in [rs2]
          (column access in BLAS kernels). *)
  | Vse of sew * Reg.v * Reg.t  (** unit-stride vector store to [rs1]. *)
  | Vsse of sew * Reg.v * Reg.t * Reg.t
      (** [Vsse (sew, vs3, rs1, rs2)]: strided store, byte stride in [rs2]. *)
  | Vop_vv of vop * Reg.v * Reg.v * Reg.v  (** [Vop_vv (op, vd, vs2, vs1)]. *)
  | Vop_vx of vop * Reg.v * Reg.v * Reg.t  (** [Vop_vx (op, vd, vs2, rs1)]. *)
  | Vmv_v_x of Reg.v * Reg.t  (** splat scalar into all elements. *)
  | Vmv_x_s of Reg.t * Reg.v  (** rd <- element 0. *)
  | Vredsum of Reg.v * Reg.v * Reg.v
      (** [Vredsum (vd, vs2, vs1)]: vd[0] <- sum(vs2) + vs1[0]. *)
  (* Custom-0: the Safer baseline's inlined indirect-jump check. *)
  | Xcheck_jalr of Reg.t * Reg.t * int
      (** Behaves like [Jalr] but first routes the target through the
          runtime's address-translation check (see
          {!Chimera_baselines.Safer}), charging the configured check cost. *)
  (* Packed-SIMD (draft P extension, SIMD-within-a-register): the second
     ISAX case study, standing in for vendor DSP extensions. Encoded on
     custom-1 here (the draft-P encodings overlap the OP major opcode). *)
  | P_add16 of Reg.t * Reg.t * Reg.t
      (** [P_add16 (rd, rs1, rs2)]: lane-wise modular addition of four
          16-bit lanes packed in 64-bit registers. *)
  | P_smaqa of Reg.t * Reg.t * Reg.t
      (** [P_smaqa (rd, rs1, rs2)]: signed multiply-accumulate over the
          eight packed 8-bit lanes: rd <- rd + Σ sext8(rs1.b[i]) ×
          sext8(rs2.b[i]). The dot-product primitive of DSP kernels. *)

val size : t -> int
(** Encoded size in bytes: 2 for compressed, 4 otherwise. *)

val is_compressed : t -> bool

val is_control_flow : t -> bool
(** True for jumps, branches, [Ecall]/[Ebreak] and their compressed forms. *)

val is_vector : t -> bool
val is_bitmanip : t -> bool
val is_packed_simd : t -> bool

val defs_mask : t -> int
(** Integer registers written, as a mask: bit [i] is set when [xi] is
    written (the layout of [Regmask.t]). [x0] is never reported. *)

val uses_mask : t -> int
(** Integer registers read, as a mask in the same layout. [x0] is never
    reported. *)

val vdefs : t -> Reg.v list
val vuses : t -> Reg.v list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
