(* Tests for riscv_machine: memory permissions, interpreter semantics,
   deterministic faults, vector unit, counters. *)


let text_base = 0x10000
let data_base = 0x40000

(* Assemble a list of instructions at [text_base], map a data page, and
   return a machine ready to run. *)
let setup ?(isa = Ext.all) ?icache insts =
  let mem = Memory.create () in
  Memory.map mem ~addr:text_base ~len:4096 Memory.perm_rx;
  Memory.map mem ~addr:data_base ~len:4096 Memory.perm_rw;
  let buf = Bytes.create 4 in
  let addr = ref text_base in
  List.iter
    (fun i ->
      let n = Encode.write buf 0 i in
      for k = 0 to n - 1 do
        Memory.poke_u8 mem (!addr + k) (Bytes.get_uint8 buf k)
      done;
      addr := !addr + n)
    insts;
  let m = Machine.create ?icache ~mem ~isa () in
  Machine.set_pc m text_base;
  m

let exit_with_a0 = [ Inst.Opi (Inst.Addi, Reg.a7, Reg.x0, 93); Inst.Ecall ]

let run_insts ?isa insts =
  let m = setup ?isa (insts @ exit_with_a0) in
  (Machine.run ~fuel:100_000 m, m)

let check_exit ?isa insts expected =
  match run_insts ?isa insts with
  | Machine.Exited code, _ -> Alcotest.(check int) "exit code" expected code
  | Machine.Faulted f, _ -> Alcotest.failf "unexpected fault: %s" (Fault.to_string f)
  | Machine.Fuel_exhausted, _ -> Alcotest.fail "fuel exhausted"

(* --- memory ------------------------------------------------------------ *)

let test_memory_rw () =
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000 ~len:8192 Memory.perm_rw;
  Memory.store_u64 mem 0x1100 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Memory.load_u64 mem 0x1100);
  Alcotest.(check int) "u8" 0x88 (Memory.load_u8 mem 0x1100);
  Alcotest.(check int) "u16" 0x7788 (Memory.load_u16 mem 0x1100);
  Alcotest.(check int) "u32" 0x55667788 (Memory.load_u32 mem 0x1100);
  (* across a page boundary *)
  Memory.store_u64 mem 0x1FFC 0xAABBCCDD11223344L;
  Alcotest.(check int64) "cross-page" 0xAABBCCDD11223344L (Memory.load_u64 mem 0x1FFC)

let test_memory_violations () =
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000 ~len:4096 Memory.perm_r;
  (match Memory.store_u8 mem 0x1000 1 with
  | exception Memory.Violation { access = Fault.Write; _ } -> ()
  | _ -> Alcotest.fail "expected write violation");
  (match Memory.fetch_u16 mem 0x1000 with
  | exception Memory.Violation { access = Fault.Execute; _ } -> ()
  | _ -> Alcotest.fail "expected execute violation");
  (match Memory.load_u8 mem 0x9000 with
  | exception Memory.Violation { access = Fault.Read; _ } -> ()
  | _ -> Alcotest.fail "expected unmapped read violation");
  Alcotest.(check int) "read ok" 0 (Memory.load_u8 mem 0x1000)

let test_memory_share () =
  let a = Memory.create () and b = Memory.create () in
  Memory.map a ~addr:0x2000 ~len:4096 Memory.perm_rw;
  Memory.share_range ~from:a ~into:b ~addr:0x2000 ~len:4096;
  Memory.store_u32 a 0x2000 42;
  Alcotest.(check int) "shared bytes" 42 (Memory.load_u32 b 0x2000);
  Memory.store_u32 b 0x2004 7;
  Alcotest.(check int) "shared back" 7 (Memory.load_u32 a 0x2004)

let test_mapped_ranges () =
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000 ~len:8192 Memory.perm_rw;
  Memory.map mem ~addr:0x10000 ~len:4096 Memory.perm_rx;
  Alcotest.(check (list (pair int int)))
    "ranges" [ (0x1000, 8192); (0x10000, 4096) ] (Memory.mapped_ranges mem)

(* --- interpreter semantics --------------------------------------------- *)

let li rd v = Inst.Opi (Inst.Addi, rd, Reg.x0, v)

let test_arith () =
  check_exit [ li Reg.t0 21; Inst.Op (Inst.Add, Reg.a0, Reg.t0, Reg.t0) ] 42;
  check_exit [ li Reg.t0 50; li Reg.t1 8; Inst.Op (Inst.Sub, Reg.a0, Reg.t0, Reg.t1) ] 42;
  check_exit [ li Reg.t0 6; li Reg.t1 7; Inst.Op (Inst.Mul, Reg.a0, Reg.t0, Reg.t1) ] 42;
  check_exit [ li Reg.t0 85; li Reg.t1 2; Inst.Op (Inst.Div, Reg.a0, Reg.t0, Reg.t1) ] 42;
  check_exit [ li Reg.t0 85; li Reg.t1 43; Inst.Op (Inst.Rem, Reg.a0, Reg.t0, Reg.t1) ] 42;
  check_exit [ li Reg.t0 21; Inst.Op (Inst.Sh1add, Reg.a0, Reg.t0, Reg.x0) ] 42;
  check_exit [ li Reg.t0 (-5); li Reg.t1 42; Inst.Op (Inst.Max, Reg.a0, Reg.t0, Reg.t1) ] 42

let test_div_by_zero_is_not_a_fault () =
  (* RISC-V defines division by zero: quotient all ones. *)
  check_exit [ li Reg.t0 7; Inst.Op (Inst.Div, Reg.t1, Reg.t0, Reg.x0);
               li Reg.t2 1; Inst.Op (Inst.Add, Reg.a0, Reg.t1, Reg.t2) ] 0;
  check_exit [ li Reg.t0 42; Inst.Op (Inst.Rem, Reg.a0, Reg.t0, Reg.x0) ] 42

let test_shifts_64bit () =
  let m = setup [ li Reg.t0 1; Inst.Opi (Inst.Slli, Reg.t0, Reg.t0, 63);
                  Inst.Opi (Inst.Srai, Reg.a0, Reg.t0, 63) ] in
  (match Machine.run ~fuel:3 m with
  | Machine.Fuel_exhausted | Machine.Exited _ -> ()
  | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f));
  Alcotest.(check int64) "srai of min_int" (-1L) (Machine.get_reg m Reg.a0)

let test_w_ops () =
  (* addw wraps at 32 bits and sign-extends. *)
  let m = setup [ Inst.Lui (Reg.t0, 0x7FFFF); Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, 0x7FF);
                  Inst.Opi (Inst.Addiw, Reg.a0, Reg.t0, 1) ] in
  ignore (Machine.run ~fuel:10 m);
  (* 0x7FFFF7FF + 1 = 0x7FFFF800, still positive; use a real overflow: *)
  let m2 = setup [ Inst.Lui (Reg.t0, 0x80000 - 0x100000);
                   Inst.Opi (Inst.Addiw, Reg.a0, Reg.t0, -1) ] in
  ignore (Machine.run ~fuel:10 m2);
  Alcotest.(check int64) "0x80000000 - 1 (w)" 0x7FFFFFFFL (Machine.get_reg m2 Reg.a0)

let test_branches_and_loop () =
  (* sum 1..10 with a loop *)
  check_exit
    [ li Reg.t0 0;  (* i *)
      li Reg.t1 0;  (* sum *)
      li Reg.t2 10;
      (* loop: *)
      Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, 1);
      Inst.Op (Inst.Add, Reg.t1, Reg.t1, Reg.t0);
      Inst.Branch (Inst.Bne, Reg.t0, Reg.t2, -8);
      Inst.Op (Inst.Add, Reg.a0, Reg.t1, Reg.x0) ]
    55

let test_load_store () =
  check_exit
    [ Inst.Lui (Reg.t0, data_base lsr 12);
      li Reg.t1 42;
      Inst.Store { width = Inst.D; rs2 = Reg.t1; rs1 = Reg.t0; imm = 8 };
      Inst.Load { width = Inst.D; unsigned = false; rd = Reg.a0; rs1 = Reg.t0; imm = 8 } ]
    42;
  (* byte store/load with sign extension *)
  check_exit
    [ Inst.Lui (Reg.t0, data_base lsr 12);
      li Reg.t1 (-1);
      Inst.Store { width = Inst.B; rs2 = Reg.t1; rs1 = Reg.t0; imm = 0 };
      Inst.Load { width = Inst.B; unsigned = true; rd = Reg.a0; rs1 = Reg.t0; imm = 0 } ]
    255

let test_call_return () =
  let insts =
    [ li Reg.a0 40;                          (* 0x0 *)
      Inst.Jal (Reg.ra, 12);                 (* 0x4: call 0x10 *)
      li Reg.a7 93;                          (* 0x8 *)
      Inst.Ecall;                            (* 0xc *)
      Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 2);  (* 0x10: f *)
      Inst.Jalr (Reg.x0, Reg.ra, 0) ]        (* 0x14: ret *)
  in
  let m = setup insts in
  match Machine.run ~fuel:100 m with
  | Machine.Exited code -> Alcotest.(check int) "exit" 42 code
  | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f)
  | Machine.Fuel_exhausted -> Alcotest.fail "fuel"

let test_compressed_execution () =
  check_exit
    [ Inst.C_li (Reg.a0, 20); Inst.C_addi (Reg.a0, 1); Inst.C_mv (Reg.t0, Reg.a0);
      Inst.C_add (Reg.a0, Reg.t0) ]
    42

let test_compressed_alu_family () =
  (* c.sub/c.xor/c.or/c.and/c.addw over the x8..x15 file *)
  check_exit
    [ Inst.C_li (Reg.a0, 0); Inst.C_li (Reg.a4, 12); Inst.C_li (Reg.a5, 6);
      Inst.C_alu (Inst.Cand, Reg.a4, Reg.a5);  (* 12 & 6 = 4 *)
      Inst.C_alu (Inst.Cor, Reg.a4, Reg.a5);   (* 4 | 6 = 6 *)
      Inst.C_alu (Inst.Cxor, Reg.a4, Reg.a5);  (* 6 ^ 6 = 0 *)
      Inst.C_addi (Reg.a4, 21);
      Inst.C_alu (Inst.Caddw, Reg.a4, Reg.a4);  (* 42 *)
      Inst.C_mv (Reg.a0, Reg.a4) ]
    42;
  (* c.sub and c.andi *)
  check_exit
    [ Inst.C_li (Reg.a4, 31); Inst.C_li (Reg.a5, 20);
      Inst.C_alu (Inst.Csub, Reg.a4, Reg.a5);  (* 11 *)
      Inst.C_andi (Reg.a4, 9);  (* 11 & 9 = 9 *)
      Inst.C_mv (Reg.a0, Reg.a4) ]
    9

let test_compressed_memory_and_lui () =
  (* c.sw/c.lw round-trip through the data page, with c.lui/c.addiw math *)
  check_exit
    [ Inst.Lui (Reg.a5, data_base lsr 12);  (* a5 = data segment *)
      Inst.C_lui (Reg.a4, 1);               (* a4 = 0x1000 *)
      Inst.C_addiw (Reg.a4, -6);            (* 0xFFA *)
      Inst.C_sw (Reg.a4, Reg.a5, 8);
      Inst.C_lw (Reg.a0, Reg.a5, 8);
      Inst.Opi (Inst.Andi, Reg.a0, Reg.a0, 255) ]  (* 0xFA = 250 *)
    250;
  (* c.ld/c.sd already covered; check sign extension of c.lw *)
  check_exit
    [ Inst.Lui (Reg.a5, data_base lsr 12);
      Inst.C_li (Reg.a4, -1);
      Inst.C_sw (Reg.a4, Reg.a5, 0);
      Inst.C_lw (Reg.a3, Reg.a5, 0);
      (* a3 = -1 sign-extended: a3 + 43 = 42 *)
      Inst.Opi (Inst.Addi, Reg.a0, Reg.a3, 43) ]
    42

(* --- deterministic faults ---------------------------------------------- *)

let test_nx_fetch_segfault () =
  (* Jump into the data segment: must be a deterministic segfault with
     access=Execute — the SMILE partial-execution case. *)
  let insts = [ Inst.Lui (Reg.t0, data_base lsr 12); Inst.Jalr (Reg.x0, Reg.t0, 0) ] in
  match run_insts insts with
  | Machine.Faulted (Fault.Segfault { access = Fault.Execute; addr; pc }), _ ->
      Alcotest.(check int) "fault addr is data segment" data_base addr;
      Alcotest.(check int) "pc at fault" data_base pc
  | stop, _ ->
      Alcotest.failf "expected segfault, got %s"
        (match stop with
        | Machine.Exited c -> Printf.sprintf "exit %d" c
        | Machine.Faulted f -> Fault.to_string f
        | Machine.Fuel_exhausted -> "fuel")

let test_unsupported_extension_fault () =
  (* A vector instruction on a base hart raises SIGILL at its pc. *)
  let insts = [ li Reg.t0 4; Inst.Vsetvli (Reg.t1, Reg.t0, Inst.E64) ] in
  match run_insts ~isa:Ext.rv64gc insts with
  | Machine.Faulted (Fault.Illegal_instruction { pc; _ }), _ ->
      Alcotest.(check int) "pc of vsetvli" (text_base + 4) pc
  | _ -> Alcotest.fail "expected SIGILL"

let test_misaligned_fetch_without_c () =
  let insts = [ Inst.Lui (Reg.t0, text_base lsr 12);
                Inst.Jalr (Reg.x0, Reg.t0, 6) ] in
  match run_insts ~isa:Ext.base insts with
  | Machine.Faulted (Fault.Misaligned_fetch { target; _ }), _ ->
      Alcotest.(check int) "target" (text_base + 6) target
  | _ -> Alcotest.fail "expected misaligned fetch"

let test_illegal_encoding_fault () =
  (* Poke the reserved >=48-bit prefix into the text. *)
  let m = setup [ li Reg.a0 1 ] in
  Memory.poke_u16 (Machine.mem m) (text_base + 4) 0xFFFF;
  Machine.set_pc m (text_base + 4);
  match Machine.run ~fuel:10 m with
  | Machine.Faulted (Fault.Illegal_instruction { pc; _ }) ->
      Alcotest.(check int) "pc" (text_base + 4) pc
  | _ -> Alcotest.fail "expected SIGILL"

(* --- vector unit -------------------------------------------------------- *)

let test_vector_add () =
  (* Store [1..4] and [10..40] in memory, vadd, read back the sum. *)
  let insts =
    [ Inst.Lui (Reg.t0, data_base lsr 12);
      li Reg.t1 4;
      Inst.Vsetvli (Reg.t2, Reg.t1, Inst.E64);
      Inst.Vle (Inst.E64, Reg.v_of_int 1, Reg.t0);
      Inst.Opi (Inst.Addi, Reg.t3, Reg.t0, 32);
      Inst.Vle (Inst.E64, Reg.v_of_int 2, Reg.t3);
      Inst.Vop_vv (Inst.Vadd, Reg.v_of_int 3, Reg.v_of_int 1, Reg.v_of_int 2);
      Inst.Opi (Inst.Addi, Reg.t4, Reg.t0, 64);
      Inst.Vse (Inst.E64, Reg.v_of_int 3, Reg.t4);
      li Reg.a7 93; li Reg.a0 0; Inst.Ecall ]
  in
  let m = setup insts in
  let mem = Machine.mem m in
  List.iteri (fun i v -> Memory.poke_u64 mem (data_base + (8 * i)) (Int64.of_int v))
    [ 1; 2; 3; 4; 10; 20; 30; 40 ];
  (match Machine.run ~fuel:1000 m with
  | Machine.Exited 0 -> ()
  | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f)
  | _ -> Alcotest.fail "no exit");
  List.iteri
    (fun i expect ->
      Alcotest.(check int64)
        (Printf.sprintf "elem %d" i)
        (Int64.of_int expect)
        (Memory.peek_u64 mem (data_base + 64 + (8 * i))))
    [ 11; 22; 33; 44 ]

let test_vector_vl_clamps () =
  let m = setup [ li Reg.t0 100; Inst.Vsetvli (Reg.a0, Reg.t0, Inst.E64);
                  li Reg.a7 93; Inst.Ecall ] in
  (match Machine.run ~fuel:10 m with
  | Machine.Exited 4 -> ()  (* VLEN=256 bits -> 4 e64 lanes *)
  | Machine.Exited n -> Alcotest.failf "vl = %d, expected 4" n
  | _ -> Alcotest.fail "no exit");
  Alcotest.(check int) "vl state" 4 (Machine.vl m)

let test_vector_e32_lanes () =
  let m = setup [ li Reg.t0 100; Inst.Vsetvli (Reg.a0, Reg.t0, Inst.E32);
                  li Reg.a7 93; Inst.Ecall ] in
  match Machine.run ~fuel:10 m with
  | Machine.Exited 8 -> ()
  | Machine.Exited n -> Alcotest.failf "vl = %d, expected 8" n
  | _ -> Alcotest.fail "no exit"

let test_vmacc_and_redsum () =
  (* dot product of [1,2,3,4] . [5,6,7,8] = 70 via vmacc + vredsum. *)
  let v1 = Reg.v_of_int 1 and v2 = Reg.v_of_int 2 in
  let v3 = Reg.v_of_int 3 and v0 = Reg.v_of_int 0 in
  let insts =
    [ Inst.Lui (Reg.t0, data_base lsr 12);
      li Reg.t1 4;
      Inst.Vsetvli (Reg.x0, Reg.t1, Inst.E64);
      Inst.Vle (Inst.E64, v1, Reg.t0);
      Inst.Opi (Inst.Addi, Reg.t2, Reg.t0, 32);
      Inst.Vle (Inst.E64, v2, Reg.t2);
      Inst.Vmv_v_x (v3, Reg.x0);
      Inst.Vop_vv (Inst.Vmacc, v3, v1, v2);
      Inst.Vmv_v_x (v0, Reg.x0);
      Inst.Vredsum (v0, v3, v0);
      Inst.Vmv_x_s (Reg.a0, v0);
      li Reg.a7 93; Inst.Ecall ]
  in
  let m = setup insts in
  let mem = Machine.mem m in
  List.iteri (fun i v -> Memory.poke_u64 mem (data_base + (8 * i)) (Int64.of_int v))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  match Machine.run ~fuel:1000 m with
  | Machine.Exited 70 -> ()
  | Machine.Exited n -> Alcotest.failf "dot = %d" n
  | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f)
  | _ -> Alcotest.fail "no exit"

(* --- counters, handlers, views ----------------------------------------- *)

let test_counters () =
  let m = setup [ li Reg.t0 1; li Reg.t1 2; li Reg.a0 0; li Reg.a7 93; Inst.Ecall ] in
  ignore (Machine.run ~fuel:100 m);
  Alcotest.(check int) "retired" 5 (Machine.retired m);
  Alcotest.(check int) "cycles = retired (no vector/penalty)" 5 (Machine.cycles m);
  Machine.charge m 100;
  Alcotest.(check int) "charge" 105 (Machine.cycles m)

let test_vector_cycle_cost () =
  let m =
    setup [ li Reg.t0 4; Inst.Vsetvli (Reg.x0, Reg.t0, Inst.E64);
            li Reg.a0 0; li Reg.a7 93; Inst.Ecall ]
  in
  ignore (Machine.run ~fuel:100 m);
  (* 4 scalar (1 cycle) + 1 vector (vector_op cycles) *)
  Alcotest.(check int) "cycles" (4 + Costs.default.Costs.vector_op) (Machine.cycles m);
  Alcotest.(check int) "vector retired" 1 (Machine.vector_retired m)

let test_ebreak_handler_redirect () =
  let insts =
    [ Inst.Ebreak;                            (* 0x0 *)
      li Reg.a0 1;                            (* 0x4: skipped by handler *)
      li Reg.a0 42; li Reg.a7 93; Inst.Ecall  (* 0x8... *) ]
  in
  let m = setup insts in
  let handlers =
    { Machine.default_handlers with
      on_ebreak = (fun m' ~pc ~size:_ ->
          Machine.charge m' 600;
          Machine.Resume (pc + 8)) }
  in
  match Machine.run ~handlers ~fuel:100 m with
  | Machine.Exited 42 -> Alcotest.(check bool) "penalty" true (Machine.cycles m > 600)
  | _ -> Alcotest.fail "redirect failed"

let test_fuel () =
  (* infinite loop *)
  let m = setup [ Inst.Jal (Reg.x0, 0) ] in
  match Machine.run ~fuel:1000 m with
  | Machine.Fuel_exhausted -> Alcotest.(check int) "retired" 1000 (Machine.retired m)
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_switch_view () =
  (* Two views with different code at the same address, shared data page. *)
  let mem_a = Memory.create () and mem_b = Memory.create () in
  Memory.map mem_a ~addr:text_base ~len:4096 Memory.perm_rx;
  Memory.map mem_b ~addr:text_base ~len:4096 Memory.perm_rx;
  let buf = Bytes.create 4 in
  let emit mem addr insts =
    let a = ref addr in
    List.iter
      (fun i ->
        let n = Encode.write buf 0 i in
        for k = 0 to n - 1 do
          Memory.poke_u8 mem (!a + k) (Bytes.get_uint8 buf k)
        done;
        a := !a + n)
      insts
  in
  emit mem_a text_base [ li Reg.a0 1; li Reg.a7 93; Inst.Ecall ];
  emit mem_b text_base [ li Reg.a0 2; li Reg.a7 93; Inst.Ecall ];
  let m = Machine.create ~mem:mem_a ~isa:Ext.all () in
  Machine.set_pc m text_base;
  (match Machine.run ~fuel:10 m with
  | Machine.Exited 1 -> ()
  | _ -> Alcotest.fail "view A");
  Machine.switch_view m mem_b;
  Machine.set_pc m text_base;
  match Machine.run ~fuel:10 m with
  | Machine.Exited 2 -> ()
  | _ -> Alcotest.fail "view B"

let test_invalidate_code () =
  let m = setup [ li Reg.a0 7; li Reg.a7 93; Inst.Ecall ] in
  (match Machine.run ~fuel:10 m with
  | Machine.Exited 7 -> ()
  | _ -> Alcotest.fail "first run");
  (* Patch the first instruction (kernel-style poke + invalidate). *)
  let buf = Bytes.create 4 in
  ignore (Encode.write buf 0 (li Reg.a0 9));
  for k = 0 to 3 do
    Memory.poke_u8 (Machine.mem m) (text_base + k) (Bytes.get_uint8 buf k)
  done;
  Machine.invalidate_code m ~addr:text_base ~len:4;
  Machine.set_pc m text_base;
  match Machine.run ~fuel:10 m with
  | Machine.Exited 9 -> ()
  | Machine.Exited n -> Alcotest.failf "stale decode cache: %d" n
  | _ -> Alcotest.fail "second run"

let test_loader_enforces_section_permissions () =
  (* writes to .text / .rodata must fault, writes to .data must not *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.rlabel a "ro";
  Asm.rword64 a 5L;
  Asm.dlabel a "rw";
  Asm.dword64 a 7L;
  let bin = Asm.assemble a in
  let mem = Loader.load bin in
  let text = (Binfile.text bin).Binfile.sec_addr in
  (match Memory.store_u64 mem text 0L with
  | exception Memory.Violation _ -> ()
  | () -> Alcotest.fail "text must be write-protected");
  (match Memory.store_u64 mem Layout.rodata_base 0L with
  | exception Memory.Violation _ -> ()
  | () -> Alcotest.fail "rodata must be write-protected");
  Memory.store_u64 mem Layout.data_base 9L;
  Alcotest.(check int64) "data writable" 9L (Memory.load_u64 mem Layout.data_base)

(* --- runtime surfaces the rewriter depends on --------------------------- *)

let test_invalidate_code_after_patch () =
  (* the decode cache must not serve stale instructions after a patch *)
  let m = setup [ Inst.Opi (Inst.Addi, Reg.a0, Reg.x0, 1) ] in
  let mem = Machine.mem m in
  (* run the addi once (fills the cache), then rewind *)
  (match Machine.run ~fuel:1 m with
  | Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected to stop on fuel");
  Alcotest.(check int64) "first decode" 1L (Machine.get_reg m Reg.a0);
  let buf = Bytes.create 4 in
  ignore (Encode.write buf 0 (Inst.Opi (Inst.Addi, Reg.a0, Reg.x0, 42)));
  Memory.poke_bytes mem text_base buf;
  Machine.invalidate_code m ~addr:text_base ~len:4;
  Machine.set_pc m text_base;
  (match Machine.run ~fuel:1 m with
  | Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected to stop on fuel");
  Alcotest.(check int64) "patched decode" 42L (Machine.get_reg m Reg.a0)

let test_switch_view_isolates_code () =
  (* two views with different code at the same pc *)
  let mk v =
    let mem = Memory.create () in
    Memory.map mem ~addr:text_base ~len:4096 Memory.perm_rx;
    let buf = Bytes.create 4 in
    ignore (Encode.write buf 0 (Inst.Opi (Inst.Addi, Reg.a0, Reg.x0, v)));
    Memory.poke_bytes mem text_base buf;
    mem
  in
  let mem_a = mk 7 and mem_b = mk 9 in
  let m = Machine.create ~mem:mem_a ~isa:Ext.all () in
  Machine.set_pc m text_base;
  (match Machine.run ~fuel:1 m with Machine.Fuel_exhausted -> () | _ -> ());
  Alcotest.(check int64) "view a" 7L (Machine.get_reg m Reg.a0);
  Machine.switch_view m mem_b;
  Machine.set_pc m text_base;
  (match Machine.run ~fuel:1 m with Machine.Fuel_exhausted -> () | _ -> ());
  Alcotest.(check int64) "view b" 9L (Machine.get_reg m Reg.a0)

(* --- software TLB + direct chaining -------------------------------------- *)

let test_tlb_perm_downgrade () =
  (* a permission downgrade must fault on the very next access, even though
     the preceding accesses warmed the TLB for the page *)
  let mem = Memory.create () in
  Memory.map mem ~addr:0x5000 ~len:4096 Memory.perm_rw;
  Memory.store_u8 mem 0x5000 1;
  Alcotest.(check int) "warm read" 1 (Memory.load_u8 mem 0x5000);
  Memory.set_perm mem ~addr:0x5000 ~len:4096 Memory.perm_r;
  (match Memory.store_u8 mem 0x5000 2 with
  | exception Memory.Violation { access = Fault.Write; _ } -> ()
  | () -> Alcotest.fail "downgrade must fault through a warm TLB");
  Alcotest.(check int) "read still allowed" 1 (Memory.load_u8 mem 0x5000);
  Memory.set_perm mem ~addr:0x5000 ~len:4096 Memory.perm_none;
  match Memory.load_u8 mem 0x5000 with
  | exception Memory.Violation { access = Fault.Read; _ } -> ()
  | _ -> Alcotest.fail "perm_none must fault reads through a warm TLB"

let test_tlb_shared_page_downgrade () =
  (* pages are aliased across memories ([share_range]); a downgrade through
     one memory must be seen by every other memory's TLB *)
  let a = Memory.create () and b = Memory.create () in
  Memory.map a ~addr:0x2000 ~len:4096 Memory.perm_rw;
  Memory.share_range ~from:a ~into:b ~addr:0x2000 ~len:4096;
  Memory.store_u32 b 0x2000 42;
  Memory.set_perm a ~addr:0x2000 ~len:4096 Memory.perm_r;
  (match Memory.store_u32 b 0x2000 7 with
  | exception Memory.Violation { access = Fault.Write; _ } -> ()
  | () -> Alcotest.fail "cross-memory downgrade must fault through b's warm TLB");
  Alcotest.(check int) "bytes unchanged" 42 (Memory.load_u32 b 0x2000)

let test_tlb_view_isolation () =
  (* TLBs are per-memory: a warm entry in one view must never serve the
     bytes of another view mapping the same address *)
  let mk v =
    let mem = Memory.create () in
    Memory.map mem ~addr:data_base ~len:4096 Memory.perm_rw;
    Memory.store_u64 mem data_base (Int64.of_int v);
    mem
  in
  let mem_a = mk 7 and mem_b = mk 9 in
  Alcotest.(check int64) "warm view A" 7L (Memory.load_u64 mem_a data_base);
  let m = Machine.create ~mem:mem_a ~isa:Ext.all () in
  Machine.switch_view m mem_b;
  Alcotest.(check int64) "view B bytes" 9L (Memory.load_u64 (Machine.mem m) data_base);
  Machine.switch_view m mem_a;
  Alcotest.(check int64) "view A bytes" 7L (Memory.load_u64 (Machine.mem m) data_base)

let test_multi_byte_fault_order () =
  (* page-crossing accessors fault in ascending address order: the bytes on
     the writable page are written before the violation is raised *)
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000 ~len:4096 Memory.perm_rw;
  Memory.map mem ~addr:0x2000 ~len:4096 Memory.perm_r;
  (match Memory.store_u64 mem 0x1FFC 0x1122334455667788L with
  | exception Memory.Violation { addr = 0x2000; access = Fault.Write } -> ()
  | exception Memory.Violation { addr; _ } ->
      Alcotest.failf "violation at %#x, expected 0x2000" addr
  | () -> Alcotest.fail "expected write violation on the read-only page");
  Alcotest.(check int) "low bytes written first" 0x55667788
    (Memory.load_u32 mem 0x1FFC);
  match Memory.load_u64 mem 0x2FFC with
  | exception Memory.Violation { addr = 0x3000; access = Fault.Read } -> ()
  | exception Memory.Violation { addr; _ } ->
      Alcotest.failf "violation at %#x, expected 0x3000" addr
  | _ -> Alcotest.fail "expected read violation past the mapping"

let test_smc_severs_chain () =
  (* a hot loop warms chain links block->block; patching the loop body and
     invalidating must sever them — the second run must execute the patched
     instruction, never the linked stale block *)
  let mem = Memory.create () in
  Memory.map mem ~addr:text_base ~len:4096 Memory.perm_rx;
  let buf = Bytes.create 4 in
  let emit a i =
    let n = Encode.write buf 0 i in
    for k = 0 to n - 1 do
      Memory.poke_u8 mem (a + k) (Bytes.get_uint8 buf k)
    done;
    a + n
  in
  let a0 = emit text_base (li Reg.t0 10) in
  let body = a0 in
  let a1 = emit a0 (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 1)) in
  let a2 = emit a1 (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1)) in
  let a3 = emit a2 (Inst.Branch (Inst.Bne, Reg.t0, Reg.x0, body - a2)) in
  let a4 = emit a3 (li Reg.a7 93) in
  ignore (emit a4 Inst.Ecall);
  let m = Machine.create ~mem ~isa:Ext.all () in
  Machine.set_pc m text_base;
  (match Machine.run ~fuel:1000 m with
  | Machine.Exited 10 -> ()
  | _ -> Alcotest.fail "first run");
  let n = Encode.write buf 0 (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 5)) in
  Alcotest.(check int) "patch same size" (a1 - body) n;
  for k = 0 to n - 1 do
    Memory.poke_u8 mem (body + k) (Bytes.get_uint8 buf k)
  done;
  Machine.invalidate_code m ~addr:body ~len:n;
  Machine.set_reg m Reg.a0 0L;
  Machine.set_pc m text_base;
  match Machine.run ~fuel:1000 m with
  | Machine.Exited 50 -> ()
  | Machine.Exited c -> Alcotest.failf "stale chained block survived: exit %d" c
  | _ -> Alcotest.fail "second run"

let test_charge_adds_cycles () =
  let m = setup [ Inst.Opi (Inst.Addi, Reg.a0, Reg.x0, 1) ] in
  (match Machine.run ~fuel:1 m with Machine.Fuel_exhausted -> () | _ -> ());
  let before = Machine.cycles m in
  Machine.charge m 600;
  Alcotest.(check int) "charged" (before + 600) (Machine.cycles m);
  Alcotest.(check int) "retired unchanged" 1 (Machine.retired m)

let test_vector_strided_gather () =
  (* a 4x4 row-major i64 matrix; vlse with stride 32 gathers one column *)
  let mem = Memory.create () in
  Memory.map mem ~addr:0x20000 ~len:4096 Memory.perm_rw;
  for r = 0 to 3 do
    for c = 0 to 3 do
      Memory.store_u64 mem (0x20000 + (32 * r) + (8 * c)) (Int64.of_int ((10 * r) + c))
    done
  done;
  Memory.map mem ~addr:text_base ~len:4096 Memory.perm_rx;
  let insts =
    [ Inst.Opi (Inst.Addi, Reg.a3, Reg.x0, 4);
      Inst.Vsetvli (Reg.t0, Reg.a3, Inst.E64);
      Inst.Lui (Reg.a0, 0x20);
      Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 8);  (* column 1 *)
      Inst.Opi (Inst.Addi, Reg.a1, Reg.x0, 32);
      Inst.Vlse (Inst.E64, Reg.v_of_int 1, Reg.a0, Reg.a1);
      (* scatter it back to a packed area at 0x20100 via unit store *)
      Inst.Lui (Reg.a2, 0x20);
      Inst.Opi (Inst.Addi, Reg.a2, Reg.a2, 0x100);
      Inst.Vse (Inst.E64, Reg.v_of_int 1, Reg.a2) ]
  in
  let buf = Bytes.create 4 in
  List.iteri
    (fun k i ->
      ignore (Encode.write buf 0 i);
      for b = 0 to 3 do
        Memory.poke_u8 mem (text_base + (4 * k) + b) (Bytes.get_uint8 buf b)
      done)
    insts;
  let m = Machine.create ~mem ~isa:Ext.all () in
  Machine.set_pc m text_base;
  (match Machine.run ~fuel:(List.length insts) m with
  | Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "unexpected stop");
  List.iteri
    (fun i want ->
      Alcotest.(check int64)
        (Printf.sprintf "column element %d" i)
        (Int64.of_int want)
        (Memory.peek_u64 mem (0x20100 + (8 * i))))
    [ 1; 11; 21; 31 ]

let test_vector_strided_scatter () =
  (* vsse with stride 24 writes every third slot *)
  let mem = Memory.create () in
  Memory.map mem ~addr:0x20000 ~len:4096 Memory.perm_rw;
  for i = 0 to 3 do
    Memory.store_u64 mem (0x20000 + (8 * i)) (Int64.of_int (100 + i))
  done;
  Memory.map mem ~addr:text_base ~len:4096 Memory.perm_rx;
  let insts =
    [ Inst.Opi (Inst.Addi, Reg.a3, Reg.x0, 4);
      Inst.Vsetvli (Reg.t0, Reg.a3, Inst.E64);
      Inst.Lui (Reg.a0, 0x20);
      Inst.Vle (Inst.E64, Reg.v_of_int 2, Reg.a0);
      Inst.Opi (Inst.Addi, Reg.a1, Reg.a0, 0x200);
      Inst.Opi (Inst.Addi, Reg.a2, Reg.x0, 24);
      Inst.Vsse (Inst.E64, Reg.v_of_int 2, Reg.a1, Reg.a2) ]
  in
  let buf = Bytes.create 4 in
  List.iteri
    (fun k i ->
      ignore (Encode.write buf 0 i);
      for b = 0 to 3 do
        Memory.poke_u8 mem (text_base + (4 * k) + b) (Bytes.get_uint8 buf b)
      done)
    insts;
  let m = Machine.create ~mem ~isa:Ext.all () in
  Machine.set_pc m text_base;
  (match Machine.run ~fuel:(List.length insts) m with
  | Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "unexpected stop");
  List.iteri
    (fun i want ->
      Alcotest.(check int64)
        (Printf.sprintf "scattered element %d" i)
        (Int64.of_int want)
        (Memory.peek_u64 mem (0x20200 + (24 * i))))
    [ 100; 101; 102; 103 ]

(* --- instruction-cache model --------------------------------------------- *)

let test_icache_unit () =
  let ic = Icache.create { Icache.sets = 4; line = 16 } in
  Alcotest.(check bool) "cold miss" false (Icache.access ic 0x1000);
  Alcotest.(check bool) "hit same line" true (Icache.access ic 0x100c);
  (* 4 sets x 16B lines: 0x1000 and 0x1040 conflict on set 0 *)
  Alcotest.(check bool) "conflict miss" false (Icache.access ic 0x1040);
  Alcotest.(check bool) "evicted" false (Icache.access ic 0x1000);
  Icache.flush ic;
  Alcotest.(check bool) "flushed" false (Icache.access ic 0x1000);
  Alcotest.(check int) "misses counted" 4 (Icache.misses ic)

let test_icache_loop_locality () =
  (* a tight loop touches one or two lines: misses stay tiny however long
     it runs; without the model the cycle count is exactly retired *)
  let body =
    [ Inst.Opi (Inst.Addi, Reg.t0, Reg.x0, 600);
      Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1);
      Inst.Branch (Inst.Bne, Reg.t0, Reg.x0, -4) ]
  in
  let m = setup ~icache:Icache.default_geometry (body @ exit_with_a0) in
  (match Machine.run ~fuel:10_000 m with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "loop failed");
  Alcotest.(check bool) "over a thousand retired" true (Machine.retired m > 1000);
  Alcotest.(check bool) "misses stay tiny" true (Machine.icache_misses m < 4);
  let m2 = setup (body @ exit_with_a0) in
  (match Machine.run ~fuel:10_000 m2 with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "loop failed");
  Alcotest.(check int) "no model, no misses" 0 (Machine.icache_misses m2)

let test_icache_thrash_charges_cycles () =
  (* two far apart code blobs bouncing control: a 1-set cache misses on
     every transfer, and each miss charges Costs.icache_miss *)
  let mem = Memory.create () in
  Memory.map mem ~addr:text_base ~len:65536 Memory.perm_rx;
  let buf = Bytes.create 4 in
  let emit addr i = ignore (Encode.write buf 0 i); Memory.poke_bytes mem addr (Bytes.sub buf 0 4) in
  (* A: count down, jump to B;  B: jump back to A;  exit when t0 = 0 *)
  emit text_base (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  emit (text_base + 4) (Inst.Branch (Inst.Beq, Reg.t0, Reg.x0, 8));
  emit (text_base + 8) (Inst.Jal (Reg.x0, 0x8000 - 8));
  emit (text_base + 12) (Inst.Opi (Inst.Addi, Reg.a7, Reg.x0, 93));
  emit (text_base + 16) Inst.Ecall;
  emit (text_base + 0x8000) (Inst.Jal (Reg.x0, -0x8000));
  let m =
    Machine.create ~icache:{ Icache.sets = 1; line = 64 } ~mem ~isa:Ext.rv64gc ()
  in
  Machine.set_pc m text_base;
  Machine.set_reg m Reg.t0 64L;
  (match Machine.run ~fuel:10_000 m with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "thrash run failed");
  Alcotest.(check bool) "misses scale with transfers" true
    (Machine.icache_misses m > 100);
  Alcotest.(check bool) "misses charged" true
    (Machine.cycles m
     >= Machine.retired m + (Machine.icache_misses m * Costs.default.Costs.icache_miss))

(* --- packed SIMD (draft-P) --------------------------------------------- *)

(* li that handles arbitrary 64-bit patterns via shifts *)
let li64 rd (v : int64) =
  let byte i =
    Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (7 - i))) 0xFFL)
  in
  Inst.Opi (Inst.Addi, rd, Reg.x0, 0)
  :: List.concat_map
       (fun i ->
         [ Inst.Opi (Inst.Slli, rd, rd, 8); Inst.Opi (Inst.Xori, rd, rd, byte i) ])
       [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_p_add16_lanes () =
  (* 0x0001_7FFF_8000_FFFF + 0x0002_0001_FFFF_0001: independent lanes with
     wraparound, no carry crossing *)
  check_exit ~isa:Ext.all
    (li64 Reg.t1 0x0001_7FFF_8000_FFFFL
    @ li64 Reg.t2 0x0002_0001_FFFF_0001L
    @ [ Inst.P_add16 (Reg.t3, Reg.t1, Reg.t2);
        (* expected 0x0003_8000_7FFF_0000; fold to a byte: xor halves *)
        Inst.Opi (Inst.Srli, Reg.t4, Reg.t3, 48);
        Inst.Opi (Inst.Srli, Reg.t5, Reg.t3, 16);
        Inst.Op (Inst.Add, Reg.a0, Reg.t4, Reg.t5);
        Inst.Opi (Inst.Andi, Reg.a0, Reg.a0, 255) ])
    (* t4 = 0x0003; t5 = 0x0003_8000_7FFF; sum low byte = 0x03 + 0x7F... :
       (0x0003 + 0x...7FFF) land 255 = (3 + 0xFF) land 255 = 2 *)
    2

let test_p_smaqa_signed_dot () =
  (* bytes (1,-2,3,-4,5,-6,7,-8) . (1,1,1,1,1,1,1,1) = -4; accumulate onto 10 *)
  check_exit ~isa:Ext.all
    (li64 Reg.t1 0xF807_FA05_FC03_FE01L  (* lanes: 1,-2,3,-4,5,-6,7,-8 *)
    @ li64 Reg.t2 0x0101_0101_0101_0101L
    @ [ Inst.Opi (Inst.Addi, Reg.t3, Reg.x0, 10);
        Inst.P_smaqa (Reg.t3, Reg.t1, Reg.t2);
        Inst.Opi (Inst.Andi, Reg.a0, Reg.t3, 255) ])
    6

let test_p_faults_without_extension () =
  match run_insts ~isa:Ext.rv64gcv [ Inst.P_add16 (Reg.a0, Reg.a1, Reg.a2) ] with
  | Machine.Faulted (Fault.Illegal_instruction _), _ -> ()
  | _ -> Alcotest.fail "P instruction must fault on a hart without P"

let () =
  Alcotest.run "riscv_machine"
    [ ("memory",
       [ Alcotest.test_case "read/write widths" `Quick test_memory_rw;
         Alcotest.test_case "violations" `Quick test_memory_violations;
         Alcotest.test_case "page sharing" `Quick test_memory_share;
         Alcotest.test_case "mapped ranges" `Quick test_mapped_ranges ]);
      ("semantics",
       [ Alcotest.test_case "arithmetic" `Quick test_arith;
         Alcotest.test_case "div by zero" `Quick test_div_by_zero_is_not_a_fault;
         Alcotest.test_case "64-bit shifts" `Quick test_shifts_64bit;
         Alcotest.test_case "W ops" `Quick test_w_ops;
         Alcotest.test_case "branch loop" `Quick test_branches_and_loop;
         Alcotest.test_case "load/store" `Quick test_load_store;
         Alcotest.test_case "call/return" `Quick test_call_return;
         Alcotest.test_case "compressed" `Quick test_compressed_execution;
         Alcotest.test_case "compressed alu family" `Quick test_compressed_alu_family;
         Alcotest.test_case "compressed memory + lui" `Quick
           test_compressed_memory_and_lui ]);
      ("faults",
       [ Alcotest.test_case "NX fetch segfault" `Quick test_nx_fetch_segfault;
         Alcotest.test_case "unsupported extension" `Quick
           test_unsupported_extension_fault;
         Alcotest.test_case "misaligned without C" `Quick
           test_misaligned_fetch_without_c;
         Alcotest.test_case "reserved encoding" `Quick test_illegal_encoding_fault ]);
      ("icache",
       [ Alcotest.test_case "unit behaviour" `Quick test_icache_unit;
         Alcotest.test_case "loop locality" `Quick test_icache_loop_locality;
         Alcotest.test_case "thrash charges cycles" `Quick
           test_icache_thrash_charges_cycles ]);
      ("loader",
       [ Alcotest.test_case "section permissions" `Quick
           test_loader_enforces_section_permissions ]);
      ("runtime-surfaces",
       [ Alcotest.test_case "invalidate code" `Quick test_invalidate_code_after_patch;
         Alcotest.test_case "switch view" `Quick test_switch_view_isolates_code;
         Alcotest.test_case "charge" `Quick test_charge_adds_cycles ]);
      ("tlb-chain",
       [ Alcotest.test_case "perm downgrade faults through warm TLB" `Quick
           test_tlb_perm_downgrade;
         Alcotest.test_case "shared-page downgrade" `Quick
           test_tlb_shared_page_downgrade;
         Alcotest.test_case "view-switch isolation" `Quick test_tlb_view_isolation;
         Alcotest.test_case "multi-byte fault order" `Quick
           test_multi_byte_fault_order;
         Alcotest.test_case "self-modification severs chain" `Quick
           test_smc_severs_chain ]);
      ("packed-simd",
       [ Alcotest.test_case "add16 lanes" `Quick test_p_add16_lanes;
         Alcotest.test_case "smaqa signed dot" `Quick test_p_smaqa_signed_dot;
         Alcotest.test_case "faults without P" `Quick
           test_p_faults_without_extension ]);
      ("vector",
       [ Alcotest.test_case "vadd" `Quick test_vector_add;
         Alcotest.test_case "vl clamps to vlmax" `Quick test_vector_vl_clamps;
         Alcotest.test_case "e32 lanes" `Quick test_vector_e32_lanes;
         Alcotest.test_case "vmacc + vredsum dot" `Quick test_vmacc_and_redsum;
         Alcotest.test_case "strided gather (vlse)" `Quick test_vector_strided_gather;
         Alcotest.test_case "strided scatter (vsse)" `Quick
           test_vector_strided_scatter ]);
      ("runtime-interface",
       [ Alcotest.test_case "counters" `Quick test_counters;
         Alcotest.test_case "vector cycles" `Quick test_vector_cycle_cost;
         Alcotest.test_case "ebreak redirect" `Quick test_ebreak_handler_redirect;
         Alcotest.test_case "fuel" `Quick test_fuel;
         Alcotest.test_case "switch view" `Quick test_switch_view;
         Alcotest.test_case "invalidate code" `Quick test_invalidate_code ]) ]
