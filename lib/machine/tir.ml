(* Linear IR for translation-block bodies: lowering, constant propagation
   and dead-write elimination. See tir.mli for the soundness argument the
   passes rely on (block dispatch discipline). *)

type kind =
  | Kconst of Reg.t * int64
  | Kmv of Reg.t * Reg.t
  | Kalu of Inst.alu_op * Reg.t * Reg.t * Reg.t
  | Kaluc of Inst.alu_op * Reg.t * Reg.t * int64
  | Kalui of Inst.alui_op * Reg.t * Reg.t * int
  | Kload of
      { width : Inst.mem_width; unsigned : bool; rd : Reg.t; base : Reg.t; off : int }
  | Kstore of { width : Inst.mem_width; rs2 : Reg.t; base : Reg.t; off : int }
  | Kdead

type op = { opc : int; osize : int; mutable k : kind }

(* ------------------------------------------------------------------ *)
(* Evaluators (moved here from machine.ml so constant folding and the
   interpreter share one definition)                                   *)
(* ------------------------------------------------------------------ *)

let sext32 v = Int64.shift_right (Int64.shift_left v 32) 32
let bool64 b = if b then 1L else 0L

let mulh a b =
  (* High 64 bits of the signed 128-bit product. *)
  let open Int64 in
  let lo_mask = 0xFFFFFFFFL in
  let a_lo = logand a lo_mask and a_hi = shift_right a 32 in
  let b_lo = logand b lo_mask and b_hi = shift_right b 32 in
  let ll = mul a_lo b_lo in
  let lh = mul a_lo b_hi in
  let hl = mul a_hi b_lo in
  let hh = mul a_hi b_hi in
  let carry =
    shift_right_logical
      (add (add (logand lh lo_mask) (logand hl lo_mask)) (shift_right_logical ll 32))
      32
  in
  add (add hh (add (shift_right lh 32) (shift_right hl 32))) carry

let alu op a b =
  let open Int64 in
  match op with
  | Inst.Add -> add a b
  | Inst.Sub -> sub a b
  | Inst.Sll -> shift_left a (to_int b land 63)
  | Inst.Slt -> bool64 (compare a b < 0)
  | Inst.Sltu -> bool64 (unsigned_compare a b < 0)
  | Inst.Xor -> logxor a b
  | Inst.Srl -> shift_right_logical a (to_int b land 63)
  | Inst.Sra -> shift_right a (to_int b land 63)
  | Inst.Or -> logor a b
  | Inst.And -> logand a b
  | Inst.Mul -> mul a b
  | Inst.Mulh -> mulh a b
  | Inst.Div ->
      if b = 0L then -1L
      else if a = min_int && b = -1L then min_int
      else div a b
  | Inst.Divu -> if b = 0L then -1L else unsigned_div a b
  | Inst.Rem ->
      if b = 0L then a else if a = min_int && b = -1L then 0L else rem a b
  | Inst.Remu -> if b = 0L then a else unsigned_rem a b
  | Inst.Addw -> sext32 (add a b)
  | Inst.Subw -> sext32 (sub a b)
  | Inst.Sllw -> sext32 (shift_left a (to_int b land 31))
  | Inst.Srlw -> sext32 (shift_right_logical (logand a 0xFFFFFFFFL) (to_int b land 31))
  | Inst.Sraw -> sext32 (shift_right (sext32 a) (to_int b land 31))
  | Inst.Mulw -> sext32 (mul a b)
  | Inst.Divw ->
      let a = sext32 a and b = sext32 b in
      if b = 0L then -1L
      else if a = 0xFFFFFFFF80000000L && b = -1L then sext32 a
      else sext32 (div a b)
  | Inst.Remw ->
      let a = sext32 a and b = sext32 b in
      if b = 0L then a
      else if a = 0xFFFFFFFF80000000L && b = -1L then 0L
      else sext32 (rem a b)
  | Inst.Sh1add -> add (shift_left a 1) b
  | Inst.Sh2add -> add (shift_left a 2) b
  | Inst.Sh3add -> add (shift_left a 3) b
  | Inst.Andn -> logand a (lognot b)
  | Inst.Orn -> logor a (lognot b)
  | Inst.Xnor -> lognot (logxor a b)
  | Inst.Min -> if compare a b < 0 then a else b
  | Inst.Max -> if compare a b > 0 then a else b
  | Inst.Minu -> if unsigned_compare a b < 0 then a else b
  | Inst.Maxu -> if unsigned_compare a b > 0 then a else b

let alui op a imm =
  let open Int64 in
  let b = of_int imm in
  match op with
  | Inst.Addi -> add a b
  | Inst.Slti -> bool64 (compare a b < 0)
  | Inst.Sltiu -> bool64 (unsigned_compare a b < 0)
  | Inst.Xori -> logxor a b
  | Inst.Ori -> logor a b
  | Inst.Andi -> logand a b
  | Inst.Slli -> shift_left a (imm land 63)
  | Inst.Srli -> shift_right_logical a (imm land 63)
  | Inst.Srai -> shift_right a (imm land 63)
  | Inst.Addiw -> sext32 (add a b)
  | Inst.Slliw -> sext32 (shift_left a (imm land 31))
  | Inst.Srliw -> sext32 (shift_right_logical (logand a 0xFFFFFFFFL) (imm land 31))
  | Inst.Sraiw -> sext32 (shift_right (sext32 a) (imm land 31))

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let c_alu_of = function
  | Inst.Csub -> Inst.Sub
  | Inst.Cxor -> Inst.Xor
  | Inst.Cor -> Inst.Or
  | Inst.Cand -> Inst.And
  | Inst.Csubw -> Inst.Subw
  | Inst.Caddw -> Inst.Addw

let lower ~pc inst size =
  let mk k = Some { opc = pc; osize = size; k } in
  (* A pure op writing x0 has no effect at all; encodings guarantee
     rd <> x0 for most compressed forms, but hint encodings (c.li x0, ...)
     do reach the decoder, so guard uniformly. Loads to x0 keep their
     access: the fault is the architectural effect. *)
  let pure rd k = if Reg.to_int rd = 0 then mk Kdead else mk k in
  match inst with
  | Inst.Lui (rd, imm20) -> pure rd (Kconst (rd, Int64.of_int (imm20 lsl 12)))
  | Inst.Auipc (rd, imm20) -> pure rd (Kconst (rd, Int64.of_int (pc + (imm20 lsl 12))))
  | Inst.Load { width; unsigned; rd; rs1; imm } ->
      mk (Kload { width; unsigned; rd; base = rs1; off = imm })
  | Inst.Store { width; rs2; rs1; imm } ->
      mk (Kstore { width; rs2; base = rs1; off = imm })
  | Inst.Op (op, rd, rs1, rs2) -> pure rd (Kalu (op, rd, rs1, rs2))
  | Inst.Opi (op, rd, rs1, imm) -> pure rd (Kalui (op, rd, rs1, imm))
  | Inst.C_nop -> mk Kdead
  | Inst.C_addi (rd, imm) -> pure rd (Kalui (Inst.Addi, rd, rd, imm))
  | Inst.C_li (rd, imm) -> pure rd (Kconst (rd, Int64.of_int imm))
  | Inst.C_mv (rd, rs2) -> pure rd (Kmv (rd, rs2))
  | Inst.C_add (rd, rs2) -> pure rd (Kalu (Inst.Add, rd, rd, rs2))
  | Inst.C_ld (rd, rs1, uimm) ->
      mk (Kload { width = Inst.D; unsigned = false; rd; base = rs1; off = uimm })
  | Inst.C_sd (rs2, rs1, uimm) ->
      mk (Kstore { width = Inst.D; rs2; base = rs1; off = uimm })
  | Inst.C_lw (rd, rs1, uimm) ->
      mk (Kload { width = Inst.W; unsigned = false; rd; base = rs1; off = uimm })
  | Inst.C_sw (rs2, rs1, uimm) ->
      mk (Kstore { width = Inst.W; rs2; base = rs1; off = uimm })
  | Inst.C_lui (rd, imm) -> pure rd (Kconst (rd, Int64.of_int (imm lsl 12)))
  | Inst.C_addiw (rd, imm) -> pure rd (Kalui (Inst.Addiw, rd, rd, imm))
  | Inst.C_andi (rd, imm) -> pure rd (Kalui (Inst.Andi, rd, rd, imm))
  | Inst.C_alu (cop, rd, rs2) -> pure rd (Kalu (c_alu_of cop, rd, rd, rs2))
  | Inst.C_slli (rd, sh) -> pure rd (Kalui (Inst.Slli, rd, rd, sh))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Read/write sets and fault capability                                *)
(* ------------------------------------------------------------------ *)

let bit r = 1 lsl Reg.to_int r

let faultable = function
  | Kload _ | Kstore _ -> true
  | Kconst _ | Kmv _ | Kalu _ | Kaluc _ | Kalui _ | Kdead -> false

let writes = function
  | Kconst (rd, _)
  | Kmv (rd, _)
  | Kalu (_, rd, _, _)
  | Kaluc (_, rd, _, _)
  | Kalui (_, rd, _, _)
  | Kload { rd; _ } ->
      bit rd land lnot 1
  | Kstore _ | Kdead -> 0

let reads = function
  | Kconst _ | Kdead -> 0
  | Kmv (_, rs) -> bit rs
  | Kalu (_, _, r1, r2) -> bit r1 lor bit r2
  | Kaluc (_, _, r1, _) | Kalui (_, _, r1, _) -> bit r1
  | Kload { base; _ } -> bit base
  | Kstore { rs2; base; _ } -> bit rs2 lor bit base

(* ------------------------------------------------------------------ *)
(* Translation-time register state                                     *)
(* ------------------------------------------------------------------ *)

(* Bit r of [known] set = register r holds [vals.(r)] at this point of the
   block. x0 is pinned known/0. *)
type state = { vals : int64 array; mutable known : int }

let state_create () = { vals = Array.make 32 0L; known = 1 }
let state_reset st = st.known <- 1
let state_clobber = state_reset

let state_learn st r v =
  let i = Reg.to_int r in
  if i <> 0 then begin
    st.vals.(i) <- v;
    st.known <- st.known lor (1 lsl i)
  end

let state_forget st r =
  let i = Reg.to_int r in
  if i <> 0 then st.known <- st.known land lnot (1 lsl i)

let known st r = st.known land (1 lsl Reg.to_int r) <> 0
let value st r = st.vals.(Reg.to_int r)

type stats = {
  mutable s_folded : int;
  mutable s_dead : int;
  mutable s_cached : int;
  mutable s_pc_elided : int;
}

let stats_create () = { s_folded = 0; s_dead = 0; s_cached = 0; s_pc_elided = 0 }

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let commutative = function
  | Inst.Add | Inst.Xor | Inst.Or | Inst.And | Inst.Mul | Inst.Mulh | Inst.Addw
  | Inst.Mulw | Inst.Xnor | Inst.Min | Inst.Max | Inst.Minu | Inst.Maxu ->
      true
  | _ -> false

(* Strength-reduce an op-with-constant whose result is not itself known:
   additive identities become moves, [and 0] becomes a constant. *)
let normalize_aluc op rd r1 c =
  match op with
  | (Inst.Add | Inst.Or | Inst.Xor | Inst.Sub) when c = 0L -> Kmv (rd, r1)
  | Inst.And when c = 0L -> Kconst (rd, 0L)
  | _ -> Kaluc (op, rd, r1, c)

let optimize st stats ops =
  let n = Array.length ops in
  (* Forward: constant propagation. Every rewrite preserves the op's
     architectural effect exactly — folding evaluates with the same
     [alu]/[alui] the interpreter uses. *)
  for i = 0 to n - 1 do
    let o = ops.(i) in
    match o.k with
    | Kdead -> ()
    | Kconst (rd, v) -> state_learn st rd v
    | Kmv (rd, rs) ->
        if known st rs then begin
          let v = value st rs in
          stats.s_cached <- stats.s_cached + 1;
          stats.s_folded <- stats.s_folded + 1;
          o.k <- Kconst (rd, v);
          state_learn st rd v
        end
        else state_forget st rd
    | Kalu (op, rd, r1, r2) ->
        let k1 = known st r1 and k2 = known st r2 in
        if k1 && k2 then begin
          let v = alu op (value st r1) (value st r2) in
          stats.s_cached <- stats.s_cached + 2;
          stats.s_folded <- stats.s_folded + 1;
          o.k <- Kconst (rd, v);
          state_learn st rd v
        end
        else if k2 then begin
          stats.s_cached <- stats.s_cached + 1;
          o.k <- normalize_aluc op rd r1 (value st r2);
          state_forget st rd
        end
        else if k1 && commutative op then begin
          stats.s_cached <- stats.s_cached + 1;
          o.k <- normalize_aluc op rd r2 (value st r1);
          state_forget st rd
        end
        else state_forget st rd
    | Kaluc (op, rd, r1, c) ->
        if known st r1 then begin
          let v = alu op (value st r1) c in
          stats.s_cached <- stats.s_cached + 1;
          stats.s_folded <- stats.s_folded + 1;
          o.k <- Kconst (rd, v);
          state_learn st rd v
        end
        else state_forget st rd
    | Kalui (op, rd, r1, imm) ->
        if known st r1 then begin
          let v = alui op (value st r1) imm in
          stats.s_cached <- stats.s_cached + 1;
          stats.s_folded <- stats.s_folded + 1;
          o.k <- Kconst (rd, v);
          state_learn st rd v
        end
        else if op = Inst.Addi && imm = 0 then begin
          o.k <- Kmv (rd, r1);
          state_forget st rd
        end
        else state_forget st rd
    | Kload l ->
        (* the loaded value is unknown at translation time *)
        state_forget st l.rd
    | Kstore _ -> ()
  done;
  (* Backward: dead-write elimination. [live] is the register set that may
     still be read; fault-capable ops are barriers (a fault handler
     observes the whole register file), and the end of the run is a
     barrier (the next unit, side exit or terminator may read anything).
     A kill therefore only happens between two pure ops of the same run —
     never across a point where machine state is observable. *)
  let live = ref (-1) in
  for i = n - 1 downto 0 do
    let o = ops.(i) in
    if faultable o.k then live := -1
    else begin
      let w = writes o.k in
      if w <> 0 && w land !live = 0 then begin
        o.k <- Kdead;
        stats.s_dead <- stats.s_dead + 1
      end
      else live := !live land lnot w lor reads o.k
    end
  done;
  for i = 0 to n - 1 do
    if not (faultable ops.(i).k) then
      stats.s_pc_elided <- stats.s_pc_elided + 1
  done
