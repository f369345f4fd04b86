type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu
type mem_width = B | H | W | D

type alu_op =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Mul | Mulh | Div | Divu | Rem | Remu
  | Addw | Subw | Sllw | Srlw | Sraw | Mulw | Divw | Remw
  | Sh1add | Sh2add | Sh3add
  | Andn | Orn | Xnor | Min | Max | Minu | Maxu

type alui_op =
  | Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai
  | Addiw | Slliw | Srliw | Sraiw

type sew = E8 | E16 | E32 | E64

let sew_bytes = function E8 -> 1 | E16 -> 2 | E32 -> 4 | E64 -> 8
let sew_name = function E8 -> "e8" | E16 -> "e16" | E32 -> "e32" | E64 -> "e64"

type c_alu_op = Csub | Cxor | Cor | Cand | Csubw | Caddw

type vop = Vadd | Vsub | Vmul | Vmacc

type t =
  | Lui of Reg.t * int
  | Auipc of Reg.t * int
  | Jal of Reg.t * int
  | Jalr of Reg.t * Reg.t * int
  | Branch of branch_cond * Reg.t * Reg.t * int
  | Load of { width : mem_width; unsigned : bool; rd : Reg.t; rs1 : Reg.t; imm : int }
  | Store of { width : mem_width; rs2 : Reg.t; rs1 : Reg.t; imm : int }
  | Op of alu_op * Reg.t * Reg.t * Reg.t
  | Opi of alui_op * Reg.t * Reg.t * int
  | Ecall
  | Ebreak
  | C_nop
  | C_ebreak
  | C_addi of Reg.t * int
  | C_li of Reg.t * int
  | C_mv of Reg.t * Reg.t
  | C_add of Reg.t * Reg.t
  | C_j of int
  | C_jr of Reg.t
  | C_jalr of Reg.t
  | C_beqz of Reg.t * int
  | C_bnez of Reg.t * int
  | C_ld of Reg.t * Reg.t * int
  | C_sd of Reg.t * Reg.t * int
  | C_lw of Reg.t * Reg.t * int
  | C_sw of Reg.t * Reg.t * int
  | C_lui of Reg.t * int
  | C_addiw of Reg.t * int
  | C_andi of Reg.t * int
  | C_alu of c_alu_op * Reg.t * Reg.t
  | C_slli of Reg.t * int
  | Vsetvli of Reg.t * Reg.t * sew
  | Vle of sew * Reg.v * Reg.t
  | Vlse of sew * Reg.v * Reg.t * Reg.t
  | Vse of sew * Reg.v * Reg.t
  | Vsse of sew * Reg.v * Reg.t * Reg.t
  | Vop_vv of vop * Reg.v * Reg.v * Reg.v
  | Vop_vx of vop * Reg.v * Reg.v * Reg.t
  | Vmv_v_x of Reg.v * Reg.t
  | Vmv_x_s of Reg.t * Reg.v
  | Vredsum of Reg.v * Reg.v * Reg.v
  | Xcheck_jalr of Reg.t * Reg.t * int
  | P_add16 of Reg.t * Reg.t * Reg.t
  | P_smaqa of Reg.t * Reg.t * Reg.t

let is_compressed = function
  | C_nop | C_ebreak | C_addi _ | C_li _ | C_mv _ | C_add _ | C_j _ | C_jr _
  | C_jalr _ | C_beqz _ | C_bnez _ | C_ld _ | C_sd _ | C_lw _ | C_sw _
  | C_lui _ | C_addiw _ | C_andi _ | C_alu _ | C_slli _ ->
      true
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Load _ | Store _ | Op _
  | Opi _ | Ecall | Ebreak | Vsetvli _ | Vle _ | Vlse _ | Vse _ | Vsse _ | Vop_vv _ | Vop_vx _
  | Vmv_v_x _ | Vmv_x_s _ | Vredsum _ | Xcheck_jalr _ | P_add16 _ | P_smaqa _ ->
      false

let size i = if is_compressed i then 2 else 4

let is_control_flow = function
  | Jal _ | Jalr _ | Branch _ | Ecall | Ebreak | C_j _ | C_jr _ | C_jalr _
  | C_beqz _ | C_bnez _ | C_ebreak | Xcheck_jalr _ ->
      true
  | Lui _ | Auipc _ | Load _ | Store _ | Op _ | Opi _ | C_nop | C_addi _
  | C_li _ | C_mv _ | C_add _ | C_ld _ | C_sd _ | C_lw _ | C_sw _ | C_lui _
  | C_addiw _ | C_andi _ | C_alu _ | C_slli _ | Vsetvli _
  | Vle _ | Vlse _ | Vse _ | Vsse _ | Vop_vv _ | Vop_vx _ | Vmv_v_x _
  | Vmv_x_s _ | Vredsum _ | P_add16 _ | P_smaqa _ ->
      false

let is_vector = function
  | Vsetvli _ | Vle _ | Vlse _ | Vse _ | Vsse _ | Vop_vv _ | Vop_vx _ | Vmv_v_x _ | Vmv_x_s _
  | Vredsum _ ->
      true
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Load _ | Store _ | Op _
  | Opi _ | Ecall | Ebreak | C_nop | C_ebreak | C_addi _ | C_li _ | C_mv _
  | C_add _ | C_j _ | C_jr _ | C_jalr _ | C_beqz _ | C_bnez _ | C_ld _
  | C_sd _ | C_lw _ | C_sw _ | C_lui _ | C_addiw _ | C_andi _ | C_alu _
  | C_slli _ | Xcheck_jalr _ | P_add16 _ | P_smaqa _ ->
      false

let is_packed_simd = function
  | P_add16 _ | P_smaqa _ -> true
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Load _ | Store _ | Op _
  | Opi _ | Ecall | Ebreak | C_nop | C_ebreak | C_addi _ | C_li _ | C_mv _
  | C_add _ | C_j _ | C_jr _ | C_jalr _ | C_beqz _ | C_bnez _ | C_ld _
  | C_sd _ | C_lw _ | C_sw _ | C_lui _ | C_addiw _ | C_andi _ | C_alu _
  | C_slli _ | Vsetvli _ | Vle _ | Vlse _ | Vse _ | Vsse _ | Vop_vv _ | Vop_vx _
  | Vmv_v_x _ | Vmv_x_s _ | Vredsum _ | Xcheck_jalr _ ->
      false

let is_bitmanip = function
  | Op ((Sh1add | Sh2add | Sh3add | Andn | Orn | Xnor | Min | Max | Minu | Maxu), _, _, _)
    ->
      true
  | Op _ | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Load _ | Store _
  | Opi _ | Ecall | Ebreak | C_nop | C_ebreak | C_addi _ | C_li _ | C_mv _
  | C_add _ | C_j _ | C_jr _ | C_jalr _ | C_beqz _ | C_bnez _ | C_ld _
  | C_sd _ | C_lw _ | C_sw _ | C_lui _ | C_addiw _ | C_andi _ | C_alu _
  | C_slli _ | Vsetvli _ | Vle _ | Vlse _ | Vse _ | Vsse _ | Vop_vv _ | Vop_vx _
  | Vmv_v_x _ | Vmv_x_s _ | Vredsum _ | Xcheck_jalr _ | P_add16 _ | P_smaqa _ ->
      false

(* Register facts as masks in [Regmask]'s layout: bit [i] is [xi], and
   bit 0 is cleared, so [x0] is never reported. *)
let bit r = (1 lsl Reg.to_int r) land lnot 1
let bit2 a b = bit a lor bit b

let defs_mask = function
  | Lui (rd, _) | Auipc (rd, _) | Jal (rd, _) -> bit rd
  | Jalr (rd, _, _) | Xcheck_jalr (rd, _, _) -> bit rd
  | Ecall -> bit Reg.a0
  | Branch _ | Store _ | Ebreak -> 0
  | Load { rd; _ } -> bit rd
  | Op (_, rd, _, _) | Opi (_, rd, _, _) -> bit rd
  | C_nop | C_ebreak -> 0
  | C_addi (rd, _) | C_li (rd, _) | C_mv (rd, _) | C_add (rd, _) -> bit rd
  | C_j _ | C_jr _ -> 0
  | C_jalr _ -> bit Reg.ra
  | C_beqz _ | C_bnez _ -> 0
  | C_ld (rd, _, _) | C_lw (rd, _, _) -> bit rd
  | C_sd _ | C_sw _ -> 0
  | C_lui (rd, _) -> bit rd
  | C_addiw (rd, _) | C_andi (rd, _) -> bit rd
  | C_alu (_, rd, _) -> bit rd
  | C_slli (rd, _) -> bit rd
  | Vsetvli (rd, _, _) -> bit rd
  | Vle _ | Vlse _ | Vse _ | Vsse _ | Vop_vv _ | Vop_vx _ | Vmv_v_x _ | Vredsum _ -> 0
  | Vmv_x_s (rd, _) -> bit rd
  | P_add16 (rd, _, _) | P_smaqa (rd, _, _) -> bit rd

let uses_mask = function
  | Lui _ | Auipc _ | Jal _ -> 0
  | Jalr (_, rs1, _) | Xcheck_jalr (_, rs1, _) -> bit rs1
  | Branch (_, rs1, rs2, _) -> bit2 rs1 rs2
  | Load { rs1; _ } -> bit rs1
  | Store { rs2; rs1; _ } -> bit2 rs2 rs1
  | Op (_, _, rs1, rs2) -> bit2 rs1 rs2
  | Opi (_, _, rs1, _) -> bit rs1
  | Ecall -> bit2 Reg.a0 Reg.a1 lor bit2 Reg.a2 Reg.a7
  | Ebreak -> 0
  | C_nop | C_ebreak -> 0
  | C_addi (rd, _) -> bit rd
  | C_li _ -> 0
  | C_mv (_, rs2) -> bit rs2
  | C_add (rd, rs2) -> bit2 rd rs2
  | C_j _ -> 0
  | C_jr rs1 | C_jalr rs1 -> bit rs1
  | C_beqz (rs1, _) | C_bnez (rs1, _) -> bit rs1
  | C_ld (_, rs1, _) | C_lw (_, rs1, _) -> bit rs1
  | C_sd (rs2, rs1, _) | C_sw (rs2, rs1, _) -> bit2 rs2 rs1
  | C_lui _ -> 0
  | C_addiw (rd, _) | C_andi (rd, _) -> bit rd
  | C_alu (_, rd, rs2) -> bit2 rd rs2
  | C_slli (rd, _) -> bit rd
  | Vsetvli (_, rs1, _) -> bit rs1
  | Vle (_, _, rs1) | Vse (_, _, rs1) -> bit rs1
  | Vlse (_, _, rs1, rs2) | Vsse (_, _, rs1, rs2) -> bit2 rs1 rs2
  | Vop_vv _ -> 0
  | Vop_vx (_, _, _, rs1) -> bit rs1
  | Vmv_v_x (_, rs1) -> bit rs1
  | Vmv_x_s _ | Vredsum _ -> 0
  | P_add16 (_, rs1, rs2) -> bit2 rs1 rs2
  | P_smaqa (rd, rs1, rs2) -> bit rd lor bit2 rs1 rs2

let vdefs = function
  | Vle (_, vd, _) | Vlse (_, vd, _, _) | Vop_vv (_, vd, _, _) | Vop_vx (_, vd, _, _)
  | Vmv_v_x (vd, _) | Vredsum (vd, _, _) ->
      [ vd ]
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Load _ | Store _ | Op _
  | Opi _ | Ecall | Ebreak | C_nop | C_ebreak | C_addi _ | C_li _ | C_mv _
  | C_add _ | C_j _ | C_jr _ | C_jalr _ | C_beqz _ | C_bnez _ | C_ld _
  | C_sd _ | C_lw _ | C_sw _ | C_lui _ | C_addiw _ | C_andi _ | C_alu _
  | C_slli _ | Vsetvli _ | Vse _ | Vsse _ | Vmv_x_s _ | Xcheck_jalr _ | P_add16 _
  | P_smaqa _ ->
      []

let vuses = function
  | Vse (_, vs3, _) | Vsse (_, vs3, _, _) -> [ vs3 ]
  | Vop_vv (Vmacc, vd, vs2, vs1) -> [ vd; vs2; vs1 ]
  | Vop_vv (_, _, vs2, vs1) -> [ vs2; vs1 ]
  | Vop_vx (Vmacc, vd, vs2, _) -> [ vd; vs2 ]
  | Vop_vx (_, _, vs2, _) -> [ vs2 ]
  | Vmv_x_s (_, vs2) -> [ vs2 ]
  | Vredsum (_, vs2, vs1) -> [ vs2; vs1 ]
  | Lui _ | Auipc _ | Jal _ | Jalr _ | Branch _ | Load _ | Store _ | Op _
  | Opi _ | Ecall | Ebreak | C_nop | C_ebreak | C_addi _ | C_li _ | C_mv _
  | C_add _ | C_j _ | C_jr _ | C_jalr _ | C_beqz _ | C_bnez _ | C_ld _
  | C_sd _ | C_lw _ | C_sw _ | C_lui _ | C_addiw _ | C_andi _ | C_alu _
  | C_slli _ | Vsetvli _ | Vle _ | Vlse _ | Vmv_v_x _ | Xcheck_jalr _ | P_add16 _
  | P_smaqa _ ->
      []

let equal (a : t) (b : t) = a = b

let branch_name = function
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt"
  | Bge -> "bge" | Bltu -> "bltu" | Bgeu -> "bgeu"

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Sll -> "sll" | Slt -> "slt" | Sltu -> "sltu"
  | Xor -> "xor" | Srl -> "srl" | Sra -> "sra" | Or -> "or" | And -> "and"
  | Mul -> "mul" | Mulh -> "mulh" | Div -> "div" | Divu -> "divu"
  | Rem -> "rem" | Remu -> "remu" | Addw -> "addw" | Subw -> "subw"
  | Sllw -> "sllw" | Srlw -> "srlw" | Sraw -> "sraw" | Mulw -> "mulw"
  | Divw -> "divw" | Remw -> "remw" | Sh1add -> "sh1add" | Sh2add -> "sh2add"
  | Sh3add -> "sh3add" | Andn -> "andn" | Orn -> "orn" | Xnor -> "xnor"
  | Min -> "min" | Max -> "max" | Minu -> "minu" | Maxu -> "maxu"

let alui_name = function
  | Addi -> "addi" | Slti -> "slti" | Sltiu -> "sltiu" | Xori -> "xori"
  | Ori -> "ori" | Andi -> "andi" | Slli -> "slli" | Srli -> "srli"
  | Srai -> "srai" | Addiw -> "addiw" | Slliw -> "slliw" | Srliw -> "srliw"
  | Sraiw -> "sraiw"

let vop_name = function
  | Vadd -> "vadd" | Vsub -> "vsub" | Vmul -> "vmul" | Vmacc -> "vmacc"

let width_name unsigned = function
  | B -> if unsigned then "lbu" else "lb"
  | H -> if unsigned then "lhu" else "lh"
  | W -> if unsigned then "lwu" else "lw"
  | D -> "ld"

let store_name = function B -> "sb" | H -> "sh" | W -> "sw" | D -> "sd"

let pp fmt i =
  let p fm = Format.fprintf fmt fm in
  let r = Reg.name in
  let v = Reg.v_name in
  match i with
  | Lui (rd, imm) -> p "lui %s, 0x%x" (r rd) (imm land 0xFFFFF)
  | Auipc (rd, imm) -> p "auipc %s, 0x%x" (r rd) (imm land 0xFFFFF)
  | Jal (rd, off) -> p "jal %s, %d" (r rd) off
  | Jalr (rd, rs1, imm) -> p "jalr %s, %d(%s)" (r rd) imm (r rs1)
  | Branch (c, rs1, rs2, off) ->
      p "%s %s, %s, %d" (branch_name c) (r rs1) (r rs2) off
  | Load { width; unsigned; rd; rs1; imm } ->
      p "%s %s, %d(%s)" (width_name unsigned width) (r rd) imm (r rs1)
  | Store { width; rs2; rs1; imm } ->
      p "%s %s, %d(%s)" (store_name width) (r rs2) imm (r rs1)
  | Op (op, rd, rs1, rs2) ->
      p "%s %s, %s, %s" (alu_name op) (r rd) (r rs1) (r rs2)
  | Opi (op, rd, rs1, imm) ->
      p "%s %s, %s, %d" (alui_name op) (r rd) (r rs1) imm
  | Ecall -> p "ecall"
  | Ebreak -> p "ebreak"
  | C_nop -> p "c.nop"
  | C_ebreak -> p "c.ebreak"
  | C_addi (rd, imm) -> p "c.addi %s, %d" (r rd) imm
  | C_li (rd, imm) -> p "c.li %s, %d" (r rd) imm
  | C_mv (rd, rs2) -> p "c.mv %s, %s" (r rd) (r rs2)
  | C_add (rd, rs2) -> p "c.add %s, %s" (r rd) (r rs2)
  | C_j off -> p "c.j %d" off
  | C_jr rs1 -> p "c.jr %s" (r rs1)
  | C_jalr rs1 -> p "c.jalr %s" (r rs1)
  | C_beqz (rs1, off) -> p "c.beqz %s, %d" (r rs1) off
  | C_bnez (rs1, off) -> p "c.bnez %s, %d" (r rs1) off
  | C_ld (rd, rs1, imm) -> p "c.ld %s, %d(%s)" (r rd) imm (r rs1)
  | C_sd (rs2, rs1, imm) -> p "c.sd %s, %d(%s)" (r rs2) imm (r rs1)
  | C_lw (rd, rs1, imm) -> p "c.lw %s, %d(%s)" (r rd) imm (r rs1)
  | C_sw (rs2, rs1, imm) -> p "c.sw %s, %d(%s)" (r rs2) imm (r rs1)
  | C_lui (rd, imm) -> p "c.lui %s, 0x%x" (r rd) (imm land 0x3F)
  | C_addiw (rd, imm) -> p "c.addiw %s, %d" (r rd) imm
  | C_andi (rd, imm) -> p "c.andi %s, %d" (r rd) imm
  | C_alu (op, rd, rs2) ->
      p "c.%s %s, %s"
        (match op with
        | Csub -> "sub" | Cxor -> "xor" | Cor -> "or" | Cand -> "and"
        | Csubw -> "subw" | Caddw -> "addw")
        (r rd) (r rs2)
  | C_slli (rd, sh) -> p "c.slli %s, %d" (r rd) sh
  | Vsetvli (rd, rs1, sew) ->
      p "vsetvli %s, %s, %s,m1" (r rd) (r rs1) (sew_name sew)
  | Vle (sew, vd, rs1) ->
      p "vle%d.v %s, (%s)" (8 * sew_bytes sew) (v vd) (r rs1)
  | Vlse (sew, vd, rs1, rs2) ->
      p "vlse%d.v %s, (%s), %s" (8 * sew_bytes sew) (v vd) (r rs1) (r rs2)
  | Vse (sew, vs3, rs1) ->
      p "vse%d.v %s, (%s)" (8 * sew_bytes sew) (v vs3) (r rs1)
  | Vsse (sew, vs3, rs1, rs2) ->
      p "vsse%d.v %s, (%s), %s" (8 * sew_bytes sew) (v vs3) (r rs1) (r rs2)
  | Vop_vv (op, vd, vs2, vs1) ->
      p "%s.vv %s, %s, %s" (vop_name op) (v vd) (v vs2) (v vs1)
  | Vop_vx (op, vd, vs2, rs1) ->
      p "%s.vx %s, %s, %s" (vop_name op) (v vd) (v vs2) (r rs1)
  | Vmv_v_x (vd, rs1) -> p "vmv.v.x %s, %s" (v vd) (r rs1)
  | Vmv_x_s (rd, vs2) -> p "vmv.x.s %s, %s" (r rd) (v vs2)
  | Vredsum (vd, vs2, vs1) -> p "vredsum.vs %s, %s, %s" (v vd) (v vs2) (v vs1)
  | Xcheck_jalr (rd, rs1, imm) -> p "x.checkjalr %s, %d(%s)" (r rd) imm (r rs1)
  | P_add16 (rd, rs1, rs2) -> p "add16 %s, %s, %s" (r rd) (r rs1) (r rs2)
  | P_smaqa (rd, rs1, rs2) -> p "smaqa %s, %s, %s" (r rd) (r rs1) (r rs2)

let to_string i = Format.asprintf "%a" pp i
