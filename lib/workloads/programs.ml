type variant = [ `Base | `Ext ]

let ld_d rd rs1 imm = Inst.Load { width = Inst.D; unsigned = false; rd; rs1; imm }
let sd_d rs2 rs1 imm = Inst.Store { width = Inst.D; rs2; rs1; imm }

let load_sew sew rd rs1 =
  let width =
    match sew with
    | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D
  in
  Inst.Load { width; unsigned = false; rd; rs1; imm = 0 }

let store_sew sew rs2 rs1 =
  let width =
    match sew with
    | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D
  in
  Inst.Store { width; rs2; rs1; imm = 0 }

let add_sew = function Inst.E64 -> Inst.Add | Inst.E32 | Inst.E16 | Inst.E8 -> Inst.Addw
let mul_sew = function Inst.E64 -> Inst.Mul | Inst.E32 | Inst.E16 | Inst.E8 -> Inst.Mulw
let lg_sew sew = match Inst.sew_bytes sew with 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3

let v0 = Reg.v_of_int 0
let v1 = Reg.v_of_int 1
let v2 = Reg.v_of_int 2
let v3 = Reg.v_of_int 3
let v4 = Reg.v_of_int 4

(* exit with the low byte of the sum of [count] sew-wide elements at [label] *)
let emit_checksum a ~label ~count ~sew =
  Asm.la a Reg.a0 label;
  Asm.li a Reg.a1 count;
  Asm.li a Reg.a2 0;
  Asm.label a "cks_loop";
  Asm.inst a (load_sew sew Reg.t0 Reg.a0);
  Asm.inst a (Inst.Op (Inst.Add, Reg.a2, Reg.a2, Reg.t0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, Inst.sew_bytes sew));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
  Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "cks_loop";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.a2, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall

let emit_matrix a ~label ~sew ~n ~f =
  Asm.dlabel a label;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match sew with
      | Inst.E64 -> Asm.dword64 a (Int64.of_int (f i j))
      | Inst.E32 | Inst.E16 | Inst.E8 -> Asm.dword32 a (f i j)
    done
  done

(* t5 <- base + (ri*n + rj) * sz; clobbers t5, t6 *)
let emit_index a ~base_reg ~sew ~n ~ri ~rj =
  Asm.li a Reg.t6 n;
  Asm.inst a (Inst.Op (Inst.Mul, Reg.t5, ri, Reg.t6));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t5, Reg.t5, rj));
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t5, Reg.t5, lg_sew sew));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t5, Reg.t5, base_reg))

(* ----------------------------------------------------------------- *)
(* matmul / gemm                                                      *)
(* ----------------------------------------------------------------- *)

let gemm ?(name = "gemm") variant ~sew ~n ~rows:(lo, hi) =
  let a = Asm.create ~name () in
  let sz = Inst.sew_bytes sew in
  Asm.func a "_start";
  Asm.la a Reg.s10 "A";
  Asm.la a Reg.s11 "B";
  Asm.la a Reg.s0 "C";
  Asm.li a Reg.s4 n;
  Asm.li a Reg.s1 lo;
  Asm.li a Reg.s6 hi;
  (* One row of C per kernel invocation. The kernel is dispatched through a
     function pointer (the OpenBLAS-style runtime kernel-selection idiom):
     every invocation is an indirect call and an indirect return — flows
     the regeneration baselines must check on each execution, while binary
     patching leaves them untouched. *)
  Asm.label a "Li";
  Asm.branch_to a Inst.Bge Reg.s1 Reg.s6 "Ldone";
  Asm.la a Reg.t5 "kptr";
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.t5; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.ra, Reg.t3, 0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.s1, Reg.s1, 1));
  Asm.j a "Li";
  Asm.label a "Ldone";
  (* checksum over the computed rows *)
  Asm.la a Reg.a0 "C";
  Asm.li a Reg.t0 (lo * n * sz);
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.a0, Reg.t0));
  Asm.li a Reg.a1 ((hi - lo) * n);
  Asm.li a Reg.a2 0;
  Asm.label a "cks_loop";
  Asm.inst a (load_sew sew Reg.t0 Reg.a0);
  Asm.inst a (Inst.Op (Inst.Add, Reg.a2, Reg.a2, Reg.t0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, sz));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
  Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "cks_loop";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.a2, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  (* the row kernels: row index in s1 *)
  (match variant with
  | `Ext ->
      (* vectorized j-outer form: each strip of C[i] accumulates over k in
         a vector register *)
      Asm.func a "row_kernel_v";
      Asm.li a Reg.s2 0;
      Asm.label a "Kj";
      Asm.branch_to a Inst.Bge Reg.s2 Reg.s4 "Kj_done";
      Asm.inst a (Inst.Op (Inst.Sub, Reg.t0, Reg.s4, Reg.s2));
      Asm.inst a (Inst.Vsetvli (Reg.t0, Reg.t0, sew));
      Asm.inst a (Inst.Vmv_v_x (v3, Reg.x0));
      Asm.li a Reg.s3 0;
      Asm.label a "Kk";
      Asm.branch_to a Inst.Bge Reg.s3 Reg.s4 "Kk_done";
      emit_index a ~base_reg:Reg.s10 ~sew ~n ~ri:Reg.s1 ~rj:Reg.s3;
      Asm.inst a (load_sew sew Reg.t4 Reg.t5);
      emit_index a ~base_reg:Reg.s11 ~sew ~n ~ri:Reg.s3 ~rj:Reg.s2;
      Asm.inst a (Inst.Vle (sew, v1, Reg.t5));
      Asm.inst a (Inst.Vop_vx (Inst.Vmacc, v3, v1, Reg.t4));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s3, Reg.s3, 1));
      Asm.j a "Kk";
      Asm.label a "Kk_done";
      emit_index a ~base_reg:Reg.s0 ~sew ~n ~ri:Reg.s1 ~rj:Reg.s2;
      Asm.inst a (Inst.Vse (sew, v3, Reg.t5));
      Asm.inst a (Inst.Op (Inst.Add, Reg.s2, Reg.s2, Reg.t0));
      Asm.j a "Kj";
      Asm.label a "Kj_done";
      Asm.ret a
  | `Base ->
      (* scalar k-outer form: for each k an axpy over the row, in the
         canonical upgradeable shape *)
      Asm.func a "row_kernel_s";
      Asm.li a Reg.s3 0;
      Asm.label a "Kk";
      Asm.branch_to a Inst.Bge Reg.s3 Reg.s4 "Kk_done";
      emit_index a ~base_reg:Reg.s10 ~sew ~n ~ri:Reg.s1 ~rj:Reg.s3;
      Asm.inst a (load_sew sew Reg.s5 Reg.t5);
      emit_index a ~base_reg:Reg.s11 ~sew ~n ~ri:Reg.s3 ~rj:Reg.x0;
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s7, Reg.t5, 0));
      emit_index a ~base_reg:Reg.s0 ~sew ~n ~ri:Reg.s1 ~rj:Reg.x0;
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s8, Reg.t5, 0));
      Asm.li a Reg.s9 n;
      Asm.label a "Laxpy";
      Asm.inst a (load_sew sew Reg.t1 Reg.s7);
      Asm.inst a (Inst.Op (mul_sew sew, Reg.t2, Reg.t1, Reg.s5));
      Asm.inst a (load_sew sew Reg.t3 Reg.s8);
      Asm.inst a (Inst.Op (add_sew sew, Reg.t3, Reg.t3, Reg.t2));
      Asm.inst a (store_sew sew Reg.t3 Reg.s8);
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s7, Reg.s7, sz));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s8, Reg.s8, sz));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s9, Reg.s9, -1));
      Asm.branch_to a Inst.Bne Reg.s9 Reg.x0 "Laxpy";
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s3, Reg.s3, 1));
      Asm.j a "Kk";
      Asm.label a "Kk_done";
      Asm.ret a);
  Asm.rlabel a "kptr";
  Asm.rword_label a (match variant with `Ext -> "row_kernel_v" | `Base -> "row_kernel_s");
  emit_matrix a ~label:"A" ~sew ~n ~f:(fun i j -> ((i * 3) + (j * 5) + 1) mod 17);
  emit_matrix a ~label:"B" ~sew ~n ~f:(fun i j -> ((i * 7) + (j * 2) + 3) mod 13);
  Asm.dlabel a "C";
  Asm.dspace a (n * n * sz);
  Asm.assemble a

let matmul ?(name = "matmul") variant ~n = gemm ~name variant ~sew:Inst.E64 ~n ~rows:(0, n)

(* ----------------------------------------------------------------- *)
(* gemv                                                               *)
(* ----------------------------------------------------------------- *)

let gemv ?(name = "gemv") ?rows variant ~sew ~n =
  let lo, hi = match rows with Some r -> r | None -> (0, n) in
  let a = Asm.create ~name () in
  let sz = Inst.sew_bytes sew in
  Asm.func a "_start";
  Asm.la a Reg.a0 "A";
  Asm.la a Reg.a1 "x";
  Asm.la a Reg.a2 "y";
  Asm.li a Reg.s4 n;
  Asm.li a Reg.s1 lo;
  Asm.li a Reg.s6 hi;
  Asm.label a "Li";
  Asm.branch_to a Inst.Bge Reg.s1 Reg.s6 "Ldone";
  Asm.li a Reg.s5 0;  (* acc *)
  (match variant with
  | `Ext ->
      Asm.li a Reg.s2 0;  (* k0 *)
      Asm.label a "Lk";
      Asm.branch_to a Inst.Bge Reg.s2 Reg.s4 "Lk_done";
      Asm.inst a (Inst.Op (Inst.Sub, Reg.t0, Reg.s4, Reg.s2));
      Asm.inst a (Inst.Vsetvli (Reg.t0, Reg.t0, sew));
      emit_index a ~base_reg:Reg.a0 ~sew ~n ~ri:Reg.s1 ~rj:Reg.s2;
      Asm.inst a (Inst.Vle (sew, v1, Reg.t5));
      Asm.inst a (Inst.Opi (Inst.Slli, Reg.t5, Reg.s2, lg_sew sew));
      Asm.inst a (Inst.Op (Inst.Add, Reg.t5, Reg.t5, Reg.a1));
      Asm.inst a (Inst.Vle (sew, v2, Reg.t5));
      Asm.inst a (Inst.Vmv_v_x (v3, Reg.x0));
      Asm.inst a (Inst.Vop_vv (Inst.Vmacc, v3, v1, v2));
      Asm.inst a (Inst.Vmv_v_x (v0, Reg.x0));
      Asm.inst a (Inst.Vredsum (v4, v3, v0));
      Asm.inst a (Inst.Vmv_x_s (Reg.t4, v4));
      Asm.inst a (Inst.Op (add_sew sew, Reg.s5, Reg.s5, Reg.t4));
      Asm.inst a (Inst.Op (Inst.Add, Reg.s2, Reg.s2, Reg.t0));
      Asm.j a "Lk";
      Asm.label a "Lk_done"
  | `Base ->
      Asm.li a Reg.s2 0;
      Asm.label a "Lk";
      Asm.branch_to a Inst.Bge Reg.s2 Reg.s4 "Lk_done";
      emit_index a ~base_reg:Reg.a0 ~sew ~n ~ri:Reg.s1 ~rj:Reg.s2;
      Asm.inst a (load_sew sew Reg.t1 Reg.t5);
      Asm.inst a (Inst.Opi (Inst.Slli, Reg.t5, Reg.s2, lg_sew sew));
      Asm.inst a (Inst.Op (Inst.Add, Reg.t5, Reg.t5, Reg.a1));
      Asm.inst a (load_sew sew Reg.t2 Reg.t5);
      Asm.inst a (Inst.Op (mul_sew sew, Reg.t1, Reg.t1, Reg.t2));
      Asm.inst a (Inst.Op (add_sew sew, Reg.s5, Reg.s5, Reg.t1));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, 1));
      Asm.j a "Lk";
      Asm.label a "Lk_done");
  (* y[i] = acc *)
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t5, Reg.s1, lg_sew sew));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t5, Reg.t5, Reg.a2));
  Asm.inst a (store_sew sew Reg.s5 Reg.t5);
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.s1, Reg.s1, 1));
  Asm.j a "Li";
  Asm.label a "Ldone";
  (* checksum over the computed rows *)
  Asm.la a Reg.a0 "y";
  Asm.li a Reg.t0 (lo * sz);
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.a0, Reg.t0));
  Asm.li a Reg.a1 (hi - lo);
  Asm.li a Reg.a2 0;
  Asm.label a "ycks_loop";
  Asm.inst a (load_sew sew Reg.t0 Reg.a0);
  Asm.inst a (Inst.Op (Inst.Add, Reg.a2, Reg.a2, Reg.t0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, sz));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
  Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "ycks_loop";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.a2, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  emit_matrix a ~label:"A" ~sew ~n ~f:(fun i j -> ((i * 5) + (j * 3) + 2) mod 19);
  Asm.dlabel a "x";
  for j = 0 to n - 1 do
    match sew with
    | Inst.E64 -> Asm.dword64 a (Int64.of_int (((j * 11) + 1) mod 23))
    | Inst.E32 | Inst.E16 | Inst.E8 -> Asm.dword32 a (((j * 11) + 1) mod 23)
  done;
  Asm.dlabel a "y";
  Asm.dspace a (n * sz);
  Asm.assemble a

(* ----------------------------------------------------------------- *)
(* fibonacci                                                          *)
(* ----------------------------------------------------------------- *)

let fibonacci ?(name = "fibonacci") ~rounds () =
  let a = Asm.create ~name () in
  Asm.func a "_start";
  Asm.li a Reg.t0 rounds;
  Asm.label a "Louter";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "Ldone";
  Asm.li a Reg.t1 1;
  Asm.li a Reg.t2 1;
  Asm.li a Reg.t3 30;
  Asm.label a "Lfib";
  Asm.inst a (Inst.Op (Inst.Add, Reg.t4, Reg.t1, Reg.t2));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t2, 0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t2, Reg.t4, 0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t3, Reg.t3, -1));
  Asm.branch_to a Inst.Bne Reg.t3 Reg.x0 "Lfib";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.j a "Louter";
  Asm.label a "Ldone";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t2, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.assemble a

(* ----------------------------------------------------------------- *)
(* vecadd                                                             *)
(* ----------------------------------------------------------------- *)

let vecadd ?(name = "vecadd") variant ~n =
  let a = Asm.create ~name () in
  Asm.func a "_start";
  Asm.la a Reg.a0 "src1";
  Asm.la a Reg.a1 "src2";
  Asm.la a Reg.a2 "dst";
  Asm.li a Reg.a3 n;
  (match variant with
  | `Ext ->
      Asm.label a "vloop";
      Asm.inst a (Inst.Vsetvli (Reg.t0, Reg.a3, Inst.E64));
      Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "vdone";
      Asm.inst a (Inst.Vle (Inst.E64, v1, Reg.a0));
      Asm.inst a (Inst.Vle (Inst.E64, v2, Reg.a1));
      Asm.inst a (Inst.Vop_vv (Inst.Vadd, v3, v1, v2));
      Asm.inst a (Inst.Vse (Inst.E64, v3, Reg.a2));
      Asm.inst a (Inst.Opi (Inst.Slli, Reg.t1, Reg.t0, 3));
      Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.a0, Reg.t1));
      Asm.inst a (Inst.Op (Inst.Add, Reg.a1, Reg.a1, Reg.t1));
      Asm.inst a (Inst.Op (Inst.Add, Reg.a2, Reg.a2, Reg.t1));
      Asm.inst a (Inst.Op (Inst.Sub, Reg.a3, Reg.a3, Reg.t0));
      Asm.j a "vloop";
      Asm.label a "vdone"
  | `Base ->
      (* the canonical upgradeable loop shape *)
      Asm.label a "loop";
      Asm.inst a (ld_d Reg.t0 Reg.a0 0);
      Asm.inst a (ld_d Reg.t1 Reg.a1 0);
      Asm.inst a (Inst.Op (Inst.Add, Reg.t2, Reg.t0, Reg.t1));
      Asm.inst a (sd_d Reg.t2 Reg.a2 0);
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 8));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, 8));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.a2, Reg.a2, 8));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.a3, Reg.a3, -1));
      Asm.branch_to a Inst.Bne Reg.a3 Reg.x0 "loop");
  emit_checksum a ~label:"dst" ~count:n ~sew:Inst.E64;
  Asm.dlabel a "src1";
  for i = 1 to n do
    Asm.dword64 a (Int64.of_int ((i * 13) mod 31))
  done;
  Asm.dlabel a "src2";
  for i = 1 to n do
    Asm.dword64 a (Int64.of_int ((i * 17) mod 29))
  done;
  Asm.dlabel a "dst";
  Asm.dspace a (8 * n);
  Asm.assemble a

(* ----------------------------------------------------------------- *)
(* branchy                                                            *)
(* ----------------------------------------------------------------- *)

let branchy ?(name = "branchy") ~rounds () =
  let a = Asm.create ~name () in
  Asm.func a "_start";
  Asm.li a Reg.t0 rounds;
  Asm.li a Reg.t1 0x2545F491;
  (* xorshift state *)
  Asm.li a Reg.t2 0;
  (* accumulator *)
  Asm.label a "Louter";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "Ldone";
  (* xorshift64 step: state ^= state << 13; >> 7; << 17 *)
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t4, Reg.t1, 13));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t4));
  Asm.inst a (Inst.Opi (Inst.Srli, Reg.t4, Reg.t1, 7));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t4));
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t4, Reg.t1, 17));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t4));
  (* two data-dependent branches on fresh state bits: effectively random
     taken/not-taken, the worst case for side-exit-heavy superblocks *)
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.t5, Reg.t1, 1));
  Asm.branch_to a Inst.Beq Reg.t5 Reg.x0 "Lskip1";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t2, Reg.t2, 1));
  Asm.label a "Lskip1";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.t5, Reg.t1, 2));
  Asm.branch_to a Inst.Beq Reg.t5 Reg.x0 "Lskip2";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t2, Reg.t2, 3));
  Asm.label a "Lskip2";
  (* compare+branch pair in fusable shape *)
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.t5, Reg.t1, 16));
  Asm.inst a (Inst.Op (Inst.Slt, Reg.t6, Reg.x0, Reg.t5));
  Asm.branch_to a Inst.Bne Reg.t6 Reg.x0 "Lskip3";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t2, Reg.t2, 5));
  Asm.label a "Lskip3";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.j a "Louter";
  Asm.label a "Ldone";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t2, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.assemble a

(* ----------------------------------------------------------------- *)
(* indirecty                                                          *)
(* ----------------------------------------------------------------- *)

let indirecty ?(name = "indirecty") ?(targets = 3) ~rounds () =
  let a = Asm.create ~name () in
  Asm.func a "_start";
  Asm.li a Reg.t0 rounds;
  Asm.li a Reg.t2 0;
  (* accumulator *)
  Asm.li a Reg.s2 0;
  (* rotating kernel index *)
  Asm.label a "Louter";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "Ldone";
  (* rotate the kernel index 0 -> 1 -> ... -> targets - 1 -> 0: the call
     site cycles through every target, each kernel's return site sees one *)
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, 1));
  Asm.li a Reg.t5 targets;
  Asm.branch_to a Inst.Blt Reg.s2 Reg.t5 "Lsel";
  Asm.li a Reg.s2 0;
  Asm.label a "Lsel";
  Asm.la a Reg.t5 "ktab";
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t4, Reg.s2, 3));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t5, Reg.t5, Reg.t4));
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.t5; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.ra, Reg.t3, 0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.j a "Louter";
  Asm.label a "Ldone";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t2, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  for k = 0 to targets - 1 do
    Asm.func a (Printf.sprintf "kern%d" k);
    Asm.inst a (Inst.Opi (Inst.Addi, Reg.t2, Reg.t2, (2 * k) + 1));
    Asm.ret a
  done;
  Asm.rlabel a "ktab";
  for k = 0 to targets - 1 do
    Asm.rword_label a (Printf.sprintf "kern%d" k)
  done;
  Asm.assemble a
