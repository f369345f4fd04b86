(* Golden tests for the IR translation passes (lib/machine/tir.ml): small
   deterministic programs whose architectural result AND pass statistics
   (the chimera_ir_*_total metrics) are both pinned. The differential property tests
   prove the passes are invisible to guest semantics; these prove each pass
   actually fires on the pattern it exists for — a silent pass regression
   (e.g. a lowering change that stops runs from forming) would keep every
   differential test green while quietly giving the speedup back. *)

let base_isa = Ext.rv64gc

let build body =
  let a = Asm.create ~name:"irgold" () in
  Asm.func a "_start";
  body a;
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.assemble a

type ir_stats = {
  units : int;
  folded : int;
  dead : int;
  pc_elided : int;
  cached : int;
}

(* Run [bin] once and read its IR pass statistics off a metrics delta. *)
let run_collect bin =
  Metrics.enable ();
  let snap0 = Metrics.Snapshot.take () in
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  let stop = Machine.run ~fuel:100_000 m in
  let d = Metrics.Snapshot.delta ~cur:(Metrics.Snapshot.take ()) ~prev:snap0 in
  let c what = Metrics.Snapshot.counter_value d ("chimera_ir_" ^ what ^ "_total") in
  ( stop,
    { units = c "units";
      folded = c "folded";
      dead = c "dead";
      pc_elided = c "pc_elided";
      cached = c "cached" } )

let exit_code = function
  | Machine.Exited c -> c
  | Machine.Faulted f -> Alcotest.failf "faulted: %s" (Fault.to_string f)
  | Machine.Fuel_exhausted -> Alcotest.fail "fuel exhausted"

(* Constant propagation: li-seeded registers flow through an alu chain at
   translation time; every op folds to a Kconst and the operand reads are
   served from the cached constants, not the register file. *)
let test_const_fold () =
  let bin =
    build (fun a ->
        Asm.li a Reg.t1 5;
        Asm.li a Reg.t2 7;
        Asm.inst a (Inst.Op (Inst.Add, Reg.t3, Reg.t1, Reg.t2));
        Asm.inst a (Inst.Op (Inst.Xor, Reg.t4, Reg.t3, Reg.t1));
        Asm.inst a (Inst.Opi (Inst.Addi, Reg.t5, Reg.t4, 1));
        Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t5, 255)))
  in
  let stop, ir = run_collect bin in
  (* 5 + 7 = 12; 12 xor 5 = 9; 9 + 1 = 10 *)
  Alcotest.(check int) "exit" 10 (exit_code stop);
  Alcotest.(check bool) "folded >= 4 (add, xor, addi, andi)" true
    (ir.folded >= 4);
  Alcotest.(check bool) "cached operand reads" true (ir.cached >= 4)

(* Dead-write elimination: overwritten register writes inside one straight
   pure run never reach the register file. *)
let test_dead_writes () =
  let bin =
    build (fun a ->
        Asm.li a Reg.t1 1;
        Asm.li a Reg.t1 2;
        Asm.li a Reg.t1 3;
        Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.t1, 0)))
  in
  let stop, ir = run_collect bin in
  Alcotest.(check int) "exit" 3 (exit_code stop);
  Alcotest.(check bool) "two overwritten writes killed" true
    (ir.dead >= 2)

(* Pure runs are emitted as merged units with no per-instruction pc writes:
   the pc-elision counter covers the whole chain, and the unit count is far
   below the instruction count. *)
let test_pc_elision () =
  let bin =
    build (fun a ->
        Asm.li a Reg.t1 1;
        for _ = 1 to 10 do
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 1))
        done;
        Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t1, 255)))
  in
  let stop, ir = run_collect bin in
  Alcotest.(check int) "exit" 11 (exit_code stop);
  Alcotest.(check bool) "pure ops emitted without pc writes" true
    (ir.pc_elided >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "merged into few units (got %d)" ir.units)
    true
    (ir.units <= 6)

(* Architectural state after running [bin] to completion on [engine]. *)
let run_state engine bin =
  let mem = Loader.load bin in
  let m = Machine.create ~engine ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  let stop = Machine.run ~fuel:100_000 m in
  (stop, Machine.retired m, List.init 32 (fun i -> Machine.get_reg m (Reg.of_int i)))

(* Adjacent 8-byte loads and stores off one base and a load/add/store to one
   address: every access is a plain unit of its own, and the translated run
   matches the step engine instruction for instruction. *)
let test_paired_accesses () =
  let a = Asm.create ~name:"irgold-pairs" () in
  Asm.func a "_start";
  (* the data pointer comes from memory, so the base is unknown at
     translation time *)
  Asm.la a Reg.t0 "ptr";
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.a0; rs1 = Reg.t0; imm = 0 });
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t1; rs1 = Reg.a0; imm = 0 });
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t2; rs1 = Reg.a0; imm = 8 });
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t1; rs1 = Reg.a0; imm = 16 });
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t2; rs1 = Reg.a0; imm = 24 });
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.a0; imm = 32 });
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t3, Reg.t3, 5));
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t3; rs1 = Reg.a0; imm = 32 });
  Asm.inst a (Inst.Op (Inst.Add, Reg.t1, Reg.t1, Reg.t2));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t1, Reg.t1, Reg.t3));
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t1, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.rlabel a "ptr";
  Asm.rword_label a "data";
  Asm.dlabel a "data";
  List.iter (Asm.dword64 a) [ 1L; 2L; 0L; 0L; 10L; 0L ];
  let bin = Asm.assemble a in
  let stop, _ = run_collect bin in
  (* t1 = 1, t2 = 2, t3 = 10 + 5; exit (1 + 2 + 15) land 255 = 18 *)
  Alcotest.(check int) "exit" 18 (exit_code stop);
  let stop_t, retired_t, regs_t = run_state Engine.default bin in
  let stop_s, retired_s, regs_s = run_state Engine.Step bin in
  Alcotest.(check int) "translated exit" 18 (exit_code stop_t);
  Alcotest.(check int) "step exit" 18 (exit_code stop_s);
  Alcotest.(check int) "retired agrees with the step engine" retired_s retired_t;
  Alcotest.(check (list int64)) "registers agree with the step engine" regs_s regs_t

(* Cached constants must still be architecturally visible at a side exit: a
   taken inlined branch leaves the block after folded ops, and the folded
   register values have to be in the register file at that point. *)
let test_fold_visible_at_side_exit () =
  let a = Asm.create ~name:"irgold-exit" () in
  Asm.func a "_start";
  Asm.li a Reg.t1 5;
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 2));
  (* taken branch: superblock formation inlines it; the exit must observe
     the folded t1 = 7 *)
  Asm.branch_to a Inst.Bne Reg.t1 Reg.x0 "out";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 100));
  Asm.label a "out";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t1, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  let bin = Asm.assemble a in
  let stop, ir = run_collect bin in
  Alcotest.(check int) "exit sees folded value" 7 (exit_code stop);
  Alcotest.(check bool) "the addi folded" true (ir.folded >= 1)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chimera_ir"
    [ ("passes",
       [ tc "const folding + cached operands" `Quick test_const_fold;
         tc "dead-write elimination" `Quick test_dead_writes;
         tc "pc-write elision over pure runs" `Quick test_pc_elision;
         tc "paired accesses agree across engines" `Quick test_paired_accesses;
         tc "folded values visible at side exit" `Quick
           test_fold_visible_at_side_exit ]) ]
