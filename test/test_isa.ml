(* Tests for the riscv_isa library: encode/decode round-trips, the reserved
   encodings the SMILE trampoline depends on, and register/extension sets. *)



let inst = Alcotest.testable Inst.pp Inst.equal

(* --- generators ------------------------------------------------------- *)

let gen_reg = QCheck.Gen.(map Reg.of_int (int_range 0 31))
let gen_reg_nz = QCheck.Gen.(map Reg.of_int (int_range 1 31))
let gen_reg_c = QCheck.Gen.(map Reg.of_int (int_range 8 15))
let gen_vreg = QCheck.Gen.(map Reg.v_of_int (int_range 0 31))
let gen_simm bits = QCheck.Gen.(int_range (-(1 lsl (bits - 1))) ((1 lsl (bits - 1)) - 1))
let gen_even bits = QCheck.Gen.map (fun v -> v land lnot 1) (gen_simm bits)

let gen_mem_width = QCheck.Gen.oneofl [ Inst.B; Inst.H; Inst.W; Inst.D ]
let gen_sew = QCheck.Gen.oneofl [ Inst.E8; Inst.E16; Inst.E32; Inst.E64 ]
let gen_vop = QCheck.Gen.oneofl [ Inst.Vadd; Inst.Vsub; Inst.Vmul; Inst.Vmacc ]

let gen_branch_cond =
  QCheck.Gen.oneofl [ Inst.Beq; Inst.Bne; Inst.Blt; Inst.Bge; Inst.Bltu; Inst.Bgeu ]

let gen_alu_op =
  QCheck.Gen.oneofl
    [ Inst.Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And; Mul; Mulh; Div;
      Divu; Rem; Remu; Addw; Subw; Sllw; Srlw; Sraw; Mulw; Divw; Remw; Sh1add;
      Sh2add; Sh3add; Andn; Orn; Xnor; Min; Max; Minu; Maxu ]

let gen_alui =
  let open QCheck.Gen in
  oneof
    [ (let* op = oneofl [ Inst.Addi; Slti; Sltiu; Xori; Ori; Andi ] in
       let* rd = gen_reg and* rs1 = gen_reg and* imm = gen_simm 12 in
       return (Inst.Opi (op, rd, rs1, imm)));
      (let* op = oneofl [ Inst.Slli; Srli; Srai ] in
       let* rd = gen_reg and* rs1 = gen_reg and* sh = int_range 0 63 in
       return (Inst.Opi (op, rd, rs1, sh)));
      (let* rd = gen_reg and* rs1 = gen_reg and* imm = gen_simm 12 in
       return (Inst.Opi (Inst.Addiw, rd, rs1, imm)));
      (let* op = oneofl [ Inst.Slliw; Srliw; Sraiw ] in
       let* rd = gen_reg and* rs1 = gen_reg and* sh = int_range 0 31 in
       return (Inst.Opi (op, rd, rs1, sh))) ]

let gen_inst =
  let open QCheck.Gen in
  oneof
    [ (let* rd = gen_reg and* imm = gen_simm 20 in return (Inst.Lui (rd, imm)));
      (let* rd = gen_reg and* imm = gen_simm 20 in return (Inst.Auipc (rd, imm)));
      (let* rd = gen_reg and* off = gen_even 21 in return (Inst.Jal (rd, off)));
      (let* rd = gen_reg and* rs1 = gen_reg and* imm = gen_simm 12 in
       return (Inst.Jalr (rd, rs1, imm)));
      (let* c = gen_branch_cond
       and* rs1 = gen_reg
       and* rs2 = gen_reg
       and* off = gen_even 13 in
       return (Inst.Branch (c, rs1, rs2, off)));
      (let* width = gen_mem_width
       and* rd = gen_reg
       and* rs1 = gen_reg
       and* imm = gen_simm 12
       and* unsigned = bool in
       let unsigned = unsigned && width <> Inst.D in
       return (Inst.Load { width; unsigned; rd; rs1; imm }));
      (let* width = gen_mem_width
       and* rs2 = gen_reg
       and* rs1 = gen_reg
       and* imm = gen_simm 12 in
       return (Inst.Store { width; rs2; rs1; imm }));
      (let* op = gen_alu_op and* rd = gen_reg and* rs1 = gen_reg and* rs2 = gen_reg in
       return (Inst.Op (op, rd, rs1, rs2)));
      gen_alui;
      return Inst.Ecall;
      return Inst.Ebreak;
      (* compressed *)
      return Inst.C_nop;
      return Inst.C_ebreak;
      (let* rd = gen_reg_nz and* imm = gen_simm 6 in return (Inst.C_addi (rd, imm)));
      (let* rd = gen_reg_nz and* imm = gen_simm 6 in return (Inst.C_li (rd, imm)));
      (let* rd = gen_reg_nz and* rs2 = gen_reg_nz in return (Inst.C_mv (rd, rs2)));
      (let* rd = gen_reg_nz and* rs2 = gen_reg_nz in return (Inst.C_add (rd, rs2)));
      (let* off = gen_even 12 in return (Inst.C_j off));
      (let* rs1 = gen_reg_nz in return (Inst.C_jr rs1));
      (let* rs1 = gen_reg_nz in return (Inst.C_jalr rs1));
      (let* rs1 = gen_reg_c and* off = gen_even 9 in return (Inst.C_beqz (rs1, off)));
      (let* rs1 = gen_reg_c and* off = gen_even 9 in return (Inst.C_bnez (rs1, off)));
      (let* rd = gen_reg_c and* rs1 = gen_reg_c and* i = int_range 0 31 in
       return (Inst.C_ld (rd, rs1, i * 8)));
      (let* rs2 = gen_reg_c and* rs1 = gen_reg_c and* i = int_range 0 31 in
       return (Inst.C_sd (rs2, rs1, i * 8)));
      (let* rd = gen_reg_nz and* sh = int_range 1 63 in return (Inst.C_slli (rd, sh)));
      (let* rd = gen_reg_c and* rs1 = gen_reg_c and* i = int_range 0 31 in
       return (Inst.C_lw (rd, rs1, i * 4)));
      (let* rs2 = gen_reg_c and* rs1 = gen_reg_c and* i = int_range 0 31 in
       return (Inst.C_sw (rs2, rs1, i * 4)));
      (let* rd = map Reg.of_int (oneofl [ 1; 3; 4; 5; 8; 15; 31 ])
       and* imm = oneof [ int_range (-32) (-1); int_range 1 31 ] in
       return (Inst.C_lui (rd, imm)));
      (let* rd = gen_reg_nz and* imm = gen_simm 6 in return (Inst.C_addiw (rd, imm)));
      (let* rd = gen_reg_c and* imm = gen_simm 6 in return (Inst.C_andi (rd, imm)));
      (let* op = oneofl [ Inst.Csub; Inst.Cxor; Inst.Cor; Inst.Cand; Inst.Csubw; Inst.Caddw ]
       and* rd = gen_reg_c
       and* rs2 = gen_reg_c in
       return (Inst.C_alu (op, rd, rs2)));
      (* vector *)
      (let* rd = gen_reg and* rs1 = gen_reg and* sew = gen_sew in
       return (Inst.Vsetvli (rd, rs1, sew)));
      (let* sew = gen_sew and* vd = gen_vreg and* rs1 = gen_reg in
       return (Inst.Vle (sew, vd, rs1)));
      (let* sew = gen_sew and* vs3 = gen_vreg and* rs1 = gen_reg in
       return (Inst.Vse (sew, vs3, rs1)));
      (let* op = gen_vop and* vd = gen_vreg and* vs2 = gen_vreg and* vs1 = gen_vreg in
       return (Inst.Vop_vv (op, vd, vs2, vs1)));
      (let* op = gen_vop and* vd = gen_vreg and* vs2 = gen_vreg and* rs1 = gen_reg in
       return (Inst.Vop_vx (op, vd, vs2, rs1)));
      (let* vd = gen_vreg and* rs1 = gen_reg in return (Inst.Vmv_v_x (vd, rs1)));
      (let* rd = gen_reg and* vs2 = gen_vreg in return (Inst.Vmv_x_s (rd, vs2)));
      (let* vd = gen_vreg and* vs2 = gen_vreg and* vs1 = gen_vreg in
       return (Inst.Vredsum (vd, vs2, vs1)));
      (let* rd = gen_reg and* rs1 = gen_reg and* imm = gen_simm 12 in
       return (Inst.Xcheck_jalr (rd, rs1, imm)));
      (let* rd = gen_reg and* rs1 = gen_reg and* rs2 = gen_reg in
       return (Inst.P_add16 (rd, rs1, rs2)));
      (let* rd = gen_reg and* rs1 = gen_reg and* rs2 = gen_reg in
       return (Inst.P_smaqa (rd, rs1, rs2)));
      (let* sew = gen_sew and* vd = gen_vreg and* rs1 = gen_reg and* rs2 = gen_reg in
       return (Inst.Vlse (sew, vd, rs1, rs2)));
      (let* sew = gen_sew and* vs3 = gen_vreg and* rs1 = gen_reg and* rs2 = gen_reg in
       return (Inst.Vsse (sew, vs3, rs1, rs2))) ]

let arb_inst = QCheck.make ~print:Inst.to_string gen_inst

(* --- properties ------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:2000 arb_inst (fun i ->
      let w = Encode.encode i in
      match Decode.decode ~lo:(w land 0xFFFF) ~hi:(w lsr 16) with
      | Decode.Ok (i', n) -> Inst.equal i i' && n = Inst.size i
      | Decode.Illegal why -> QCheck.Test.fail_reportf "illegal: %s" why)

let prop_size_matches_encoding =
  QCheck.Test.make ~name:"compressed insts encode to 16 bits" ~count:1000 arb_inst
    (fun i ->
      let w = Encode.encode i in
      if Inst.is_compressed i then w land lnot 0xFFFF = 0 && w land 0b11 <> 0b11
      else w land 0b11 = 0b11)

let prop_defs_never_x0 =
  QCheck.Test.make ~name:"defs/uses never report x0" ~count:1000 arb_inst (fun i ->
      Inst.defs_mask i land 1 = 0 && Inst.uses_mask i land 1 = 0)

let prop_write_matches_encode =
  QCheck.Test.make ~name:"write produces little-endian encode" ~count:500 arb_inst
    (fun i ->
      let buf = Bytes.make 4 '\xAA' in
      let n = Encode.write buf 0 i in
      let w = Encode.encode i in
      let got = ref 0 in
      for k = n - 1 downto 0 do
        got := (!got lsl 8) lor Bytes.get_uint8 buf k
      done;
      n = Inst.size i && !got = w)

(* --- SMILE encoding facts (paper Fig. 7) ------------------------------ *)

(* The fixed SMILE jalr immediate: chosen so that the upper halfword of
   [jalr gp, imm(gp)] is a reserved C1 compressed encoding. The rewriter
   re-derives this constant; the test pins the bit-level facts. *)
let smile_jalr_imm = Encode.sext 0x9C6 12

let test_smile_jalr_upper_halfword_is_illegal () =
  let w = Encode.encode (Inst.Jalr (Reg.gp, Reg.gp, smile_jalr_imm)) in
  let upper = (w lsr 16) land 0xFFFF in
  (match Decode.decode ~lo:upper ~hi:0 with
  | Decode.Illegal _ -> ()
  | Decode.Ok (i, _) -> Alcotest.failf "expected illegal, decoded %s" (Inst.to_string i));
  (* and the halfword parses as 16-bit (quadrant C1), not as a 32-bit
     instruction prefix, so a fetch at P3 faults immediately. *)
  Alcotest.(check bool) "C1 quadrant" true (upper land 0b11 = 0b01)

let test_smile_auipc_upper_halfword_is_illegal () =
  (* Any auipc whose imm20 has bits 4..8 set (word bits 16..20 = 11111) has
     an upper halfword that starts the reserved >=48-bit prefix. *)
  List.iter
    (fun imm_rest ->
      let imm20 = Encode.sext ((imm_rest lsl 9) lor (0b11111 lsl 4)) 20 in
      let w = Encode.encode (Inst.Auipc (Reg.gp, imm20)) in
      let upper = (w lsr 16) land 0xFFFF in
      Alcotest.(check bool)
        "low 5 bits are 11111" true
        (upper land 0b11111 = 0b11111);
      match Decode.decode ~lo:upper ~hi:0xFFFF with
      | Decode.Illegal _ -> ()
      | Decode.Ok (i, _) -> Alcotest.failf "expected illegal: %s" (Inst.to_string i))
    [ 0; 1; 0x7FF; 0x400; 0x123 ]

let test_vanilla_trampoline_roundtrip () =
  (* auipc t0, hi; jalr x0, lo(t0): both halves decode back. *)
  let insts = [ Inst.Auipc (Reg.t0, 0x12345 - 0x20000); Inst.Jalr (Reg.x0, Reg.t0, -42) ] in
  List.iter
    (fun i ->
      match Decode.decode_word (Encode.encode i) with
      | Decode.Ok (i', 4) -> Alcotest.check inst "roundtrip" i i'
      | Decode.Ok (_, n) -> Alcotest.failf "size %d" n
      | Decode.Illegal why -> Alcotest.fail why)
    insts

(* --- misc unit tests --------------------------------------------------- *)

let test_reg_names () =
  Alcotest.(check string) "gp" "gp" (Reg.name Reg.gp);
  Alcotest.(check string) "a0" "a0" (Reg.name (Reg.of_int 10));
  Alcotest.(check string) "t6" "t6" (Reg.name (Reg.of_int 31));
  Alcotest.(check int) "gp is x3" 3 (Reg.to_int Reg.gp)

let test_reg_of_int_invalid () =
  Alcotest.check_raises "of_int 32" (Invalid_argument "Reg.of_int: 32") (fun () ->
      ignore (Reg.of_int 32));
  Alcotest.check_raises "of_int -1" (Invalid_argument "Reg.of_int: -1") (fun () ->
      ignore (Reg.of_int (-1)))

let test_ext_sets () =
  Alcotest.(check bool) "V in rv64gcv" true (Ext.mem Ext.V Ext.rv64gcv);
  Alcotest.(check bool) "V not in rv64gc" false (Ext.mem Ext.V Ext.rv64gc);
  Alcotest.(check bool) "rv64gc subset of rv64gcv" true (Ext.subset Ext.rv64gc Ext.rv64gcv);
  Alcotest.(check bool) "not the converse" false (Ext.subset Ext.rv64gcv Ext.rv64gc);
  Alcotest.(check string) "name" "rv64imcv" (Ext.name Ext.rv64gcv);
  Alcotest.(check bool) "P in all" true (Ext.mem Ext.P Ext.all);
  Alcotest.(check bool) "P not in rv64gcv" false (Ext.mem Ext.P Ext.rv64gcv);
  Alcotest.(check bool) "to_list/of_list roundtrip" true
    (Ext.equal Ext.all (Ext.of_list (Ext.to_list Ext.all)))

let test_ext_required () =
  let vadd = Inst.Vop_vv (Inst.Vadd, Reg.v_of_int 1, Reg.v_of_int 2, Reg.v_of_int 3) in
  Alcotest.(check bool) "vadd needs V" true (Ext.required vadd = Some Ext.V);
  Alcotest.(check bool) "c.nop needs C" true (Ext.required Inst.C_nop = Some Ext.C);
  let sh1 = Inst.Op (Inst.Sh1add, Reg.a0, Reg.a1, Reg.a2) in
  Alcotest.(check bool) "sh1add needs B" true (Ext.required sh1 = Some Ext.B);
  Alcotest.(check bool) "add needs nothing" true
    (Ext.required (Inst.Op (Inst.Add, Reg.a0, Reg.a1, Reg.a2)) = None);
  Alcotest.(check bool) "base core rejects vadd" false (Ext.supports Ext.rv64gc vadd);
  Alcotest.(check bool) "ext core accepts vadd" true (Ext.supports Ext.rv64gcv vadd)

let test_encode_range_checks () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "branch offset too large" (fun () ->
      Encode.encode (Inst.Branch (Inst.Beq, Reg.a0, Reg.a1, 1 lsl 13)));
  expect_invalid "odd jal offset" (fun () -> Encode.encode (Inst.Jal (Reg.ra, 3)));
  expect_invalid "c.beqz bad register" (fun () ->
      Encode.encode (Inst.C_beqz (Reg.t6, 4)));
  expect_invalid "c.addi x0" (fun () -> Encode.encode (Inst.C_addi (Reg.x0, 1)));
  expect_invalid "jalr imm out of range" (fun () ->
      Encode.encode (Inst.Jalr (Reg.ra, Reg.a0, 4096)))

let test_hi20_lo12 () =
  List.iter
    (fun v ->
      let hi = Encode.hi20 v and lo = Encode.lo12 v in
      Alcotest.(check int) (Printf.sprintf "reassemble %d" v) v ((hi lsl 12) + lo);
      Alcotest.(check bool) "lo fits 12 bits signed" true (Encode.fits_signed lo 12))
    [ 0; 1; 0x800; 0xFFF; 0x1000; 0x12345678; 0x7FFFF800 - 1; (4096 * 3) + 2047 ]

let test_sext () =
  Alcotest.(check int) "sext 0xFFF 12" (-1) (Encode.sext 0xFFF 12);
  Alcotest.(check int) "sext 0x7FF 12" 2047 (Encode.sext 0x7FF 12);
  Alcotest.(check int) "sext 0x800 12" (-2048) (Encode.sext 0x800 12)

let test_decode_known_words () =
  (* Hand-assembled words cross-checked against the RISC-V spec. *)
  let check_word w expect =
    match Decode.decode_word w with
    | Decode.Ok (i, _) -> Alcotest.check inst (Printf.sprintf "0x%08x" w) expect i
    | Decode.Illegal why -> Alcotest.failf "0x%08x illegal: %s" w why
  in
  check_word 0x00000013 (Inst.Opi (Inst.Addi, Reg.x0, Reg.x0, 0));
  (* nop *)
  check_word 0x00008067 (Inst.Jalr (Reg.x0, Reg.ra, 0));
  (* ret *)
  check_word 0x00a58533 (Inst.Op (Inst.Add, Reg.a0, Reg.a1, Reg.a0));
  check_word 0x00100073 Inst.Ebreak;
  check_word 0x00000073 Inst.Ecall

let test_uses_defs () =
  let i = Inst.Op (Inst.Add, Reg.a0, Reg.a1, Reg.a2) in
  Alcotest.(check (list string)) "defs add" [ "a0" ] (List.map Reg.name (Regmask.to_list (Inst.defs_mask i)));
  Alcotest.(check (list string))
    "uses add" [ "a1"; "a2" ]
    (List.map Reg.name (Regmask.to_list (Inst.uses_mask i)));
  let st = Inst.Store { width = Inst.D; rs2 = Reg.t0; rs1 = Reg.sp; imm = 8 } in
  Alcotest.(check (list string)) "defs sd" [] (List.map Reg.name (Regmask.to_list (Inst.defs_mask st)));
  let vmacc =
    Inst.Vop_vv (Inst.Vmacc, Reg.v_of_int 1, Reg.v_of_int 2, Reg.v_of_int 3)
  in
  Alcotest.(check int) "vmacc vuses incl. vd" 3 (List.length (Inst.vuses vmacc))

(* --- packed-SIMD (draft-P case study) --------------------------------- *)

let test_p_ext_classification () =
  let add16 = Inst.P_add16 (Reg.a0, Reg.a1, Reg.a2) in
  let smaqa = Inst.P_smaqa (Reg.a0, Reg.a1, Reg.a2) in
  Alcotest.(check bool) "add16 needs P" true (Ext.required add16 = Some Ext.P);
  Alcotest.(check bool) "smaqa needs P" true (Ext.required smaqa = Some Ext.P);
  Alcotest.(check bool) "base hart lacks P" false (Ext.supports Ext.rv64gcv add16);
  Alcotest.(check bool) "all harts have P" true (Ext.supports Ext.all add16);
  (* the accumulator is both read and written by smaqa *)
  Alcotest.(check bool) "smaqa uses rd" true
    (Regmask.mem Reg.a0 (Inst.uses_mask smaqa));
  Alcotest.(check bool) "add16 does not use rd" false
    (Regmask.mem Reg.a0 (Inst.uses_mask add16))

let test_p_reserved_encodings_illegal () =
  (* custom-1 with funct3 >= 2 or funct7 <> 0 stays illegal *)
  let base = Encode.encode (Inst.P_add16 (Reg.a0, Reg.a1, Reg.a2)) in
  let f3_2 = base lor (2 lsl 12) in
  let f7_1 = base lor (1 lsl 25) in
  (match Decode.decode ~lo:(f3_2 land 0xFFFF) ~hi:(f3_2 lsr 16) with
  | Decode.Illegal _ -> ()
  | Decode.Ok _ -> Alcotest.fail "funct3=2 on custom-1 must stay reserved");
  match Decode.decode ~lo:(f7_1 land 0xFFFF) ~hi:(f7_1 lsr 16) with
  | Decode.Illegal _ -> ()
  | Decode.Ok _ -> Alcotest.fail "funct7=1 on custom-1 must stay reserved"

let test_p_and_strided_pp () =
  Alcotest.(check bool) "smaqa printed" true
    (String.length (Inst.to_string (Inst.P_smaqa (Reg.a0, Reg.a1, Reg.a2))) > 0
     && String.sub (Inst.to_string (Inst.P_smaqa (Reg.a0, Reg.a1, Reg.a2))) 0 5 = "smaqa");
  let vlse = Inst.to_string (Inst.Vlse (Inst.E64, Reg.v_of_int 3, Reg.a0, Reg.a1)) in
  Alcotest.(check string) "vlse rendering" "vlse64.v v3, (a0), a1" vlse

let test_strided_encoding_layout () =
  (* the documented custom layout: mop bit 27 set, vm bit 25 set, stride
     register in [24:20] *)
  let w = Encode.encode (Inst.Vlse (Inst.E64, Reg.v_of_int 3, Reg.a0, Reg.a1)) in
  Alcotest.(check int) "opcode" 0b0000111 (w land 0x7F);
  Alcotest.(check int) "mop strided" 1 ((w lsr 27) land 1);
  Alcotest.(check int) "unmasked" 1 ((w lsr 25) land 1);
  Alcotest.(check int) "stride reg" (Reg.to_int Reg.a1) ((w lsr 20) land 0x1F);
  (* clearing the mop bit with rs2 set is NOT unit-stride: reserved *)
  let bogus = w land lnot (1 lsl 27) in
  match Decode.decode ~lo:(bogus land 0xFFFF) ~hi:(bogus lsr 16) with
  | Decode.Illegal _ -> ()
  | Decode.Ok (i, _) ->
      Alcotest.failf "unit-stride with rs2 must stay reserved, got %s" (Inst.to_string i)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_size_matches_encoding; prop_defs_never_x0;
      prop_write_matches_encode ]

let () =
  Alcotest.run "riscv_isa"
    [ ("registers",
       [ Alcotest.test_case "names" `Quick test_reg_names;
         Alcotest.test_case "of_int bounds" `Quick test_reg_of_int_invalid ]);
      ("extensions",
       [ Alcotest.test_case "sets" `Quick test_ext_sets;
         Alcotest.test_case "required" `Quick test_ext_required ]);
      ("encode",
       [ Alcotest.test_case "range checks" `Quick test_encode_range_checks;
         Alcotest.test_case "hi20/lo12" `Quick test_hi20_lo12;
         Alcotest.test_case "sext" `Quick test_sext ]);
      ("decode",
       [ Alcotest.test_case "known words" `Quick test_decode_known_words;
         Alcotest.test_case "smile jalr halfword illegal" `Quick
           test_smile_jalr_upper_halfword_is_illegal;
         Alcotest.test_case "smile auipc halfword illegal" `Quick
           test_smile_auipc_upper_halfword_is_illegal;
         Alcotest.test_case "vanilla trampoline roundtrip" `Quick
           test_vanilla_trampoline_roundtrip ]);
      ("inst", [ Alcotest.test_case "uses/defs" `Quick test_uses_defs ]);
      ("packed-simd",
       [ Alcotest.test_case "classification" `Quick test_p_ext_classification;
         Alcotest.test_case "reserved encodings" `Quick
           test_p_reserved_encodings_illegal;
         Alcotest.test_case "pretty printing" `Quick test_p_and_strided_pp;
         Alcotest.test_case "strided encoding layout" `Quick
           test_strided_encoding_layout ]);
      ("properties", qtests) ]
