(* Block-boundary edge cases for superblock translation, each checked
   differentially: the single-step engine is the bit-exact oracle, and the
   translating engine (top-tier superblocks from the first touch, with
   inline caches) must reproduce its stop state, registers, pc and
   counters exactly. The edges covered:

   - a block body hitting [max_insts] exactly, with fuel running out just
     before / at / after the cap;
   - a degenerate block at an entry that is unmapped, misaligned, or holds
     an instruction outside the hart's ISA;
   - a taken branch whose target lands mid-instruction (legal at 2-byte
     alignment once C is in the ISA: whatever the bytes there decode to,
     all engines must agree);
   - the branch-dense workload, plus fuel sweeps that cut blocks at every
     prefix length (exercising partial dispatch across fused pairs).

   A last check pins per-exit chaining: once warm, the branch-dense
   workload's side exits follow their own chain links. *)

let ext_isa = Ext.rv64gcv

type snap = {
  sn_stop : string;
  sn_regs : int64 list;
  sn_pc : int;
  sn_retired : int;
  sn_cycles : int;
}

let snapshot m stop =
  let stop =
    match stop with
    | Machine.Exited c -> Printf.sprintf "exit %d" c
    | Machine.Faulted f -> Printf.sprintf "fault %s" (Fault.to_string f)
    | Machine.Fuel_exhausted -> "fuel"
  in
  { sn_stop = stop;
    sn_regs = List.init 32 (fun i -> Machine.get_reg m (Reg.of_int i));
    sn_pc = Machine.pc m;
    sn_retired = Machine.retired m;
    sn_cycles = Machine.cycles m }

let pp_snap s =
  Printf.sprintf "%s pc=%#x retired=%d cycles=%d" s.sn_stop s.sn_pc
    s.sn_retired s.sn_cycles

let run engine ~fuel ?(isa = ext_isa) bin =
  let mem = Loader.load bin in
  let m = Machine.create ~engine ~mem ~isa () in
  Loader.init_machine m bin;
  snapshot m (Machine.run ~fuel m)

(* The core check: the translated machine agrees with the step oracle. *)
let agree ?isa ~fuel what bin =
  let step = run Engine.Step ~fuel ?isa bin in
  let translated = run Engine.default ~fuel ?isa bin in
  if translated <> step then
    Alcotest.failf "%s (fuel %d): translated { %s } <> step { %s }" what fuel
      (pp_snap translated) (pp_snap step)

(* --- max_insts exactly reached ----------------------------------------- *)

(* [n] straight-line adds with no control flow until the exit sequence:
   translation must cap the first block at exactly [max_insts] (default
   256) body instructions and continue in a successor block. *)
let straightline_bin ~n =
  let a = Asm.create ~name:"straight" () in
  Asm.func a "_start";
  for i = 1 to n do
    Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, ((i * 7) mod 13) - 6))
  done;
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t0, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.assemble a

let test_max_insts () =
  let bin = straightline_bin ~n:300 in
  (* fuel exactly at the cap, one below, one above, mid-body, and enough to
     finish — the 256-instruction first block must split its dispatch at
     every one of these boundaries identically to single stepping *)
  List.iter
    (fun fuel -> agree ~fuel "max_insts" bin)
    [ 1; 2; 100; 255; 256; 257; 300; 10_000 ]

(* --- degenerate entries ------------------------------------------------ *)

let jump_to ~name target =
  let a = Asm.create ~name () in
  Asm.func a "_start";
  Asm.li a Reg.t0 target;
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t0, 0));
  Asm.assemble a

let test_degenerate () =
  (* unmapped entry: the indirect jump lands on an address no segment
     covers — translation produces an empty block and the slow path raises
     the precise fetch fault *)
  agree ~fuel:1_000 "unmapped entry" (jump_to ~name:"unmapped" 0x7000_0000);
  (* misaligned entry: odd target *)
  agree ~fuel:1_000 "misaligned entry" (jump_to ~name:"misaligned" 0x7000_0001);
  (* illegal entry: a vector instruction under an ISA without V — the
     block's first instruction cannot execute on this hart *)
  let a = Asm.create ~name:"illegal" () in
  Asm.func a "_start";
  Asm.inst a (Inst.Vsetvli (Reg.t0, Reg.a0, Inst.E64));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  agree ~isa:Ext.rv64gc ~fuel:1_000 "illegal entry" (Asm.assemble a)

(* --- branch into the middle of an instruction -------------------------- *)

let test_mid_instruction_branch () =
  let a = Asm.create ~name:"midbr" () in
  Asm.func a "_start";
  Asm.li a Reg.t0 0;
  (* always-taken branch to pc+6: two bytes into the following 4-byte
     addi. 2-byte aligned, so with C in the ISA the superblock builder may
     legally inline it; the bytes at the target decode to whatever the
     upper half of the addi encoding happens to be, and every engine must
     agree on that outcome *)
  Asm.inst a (Inst.Branch (Inst.Beq, Reg.x0, Reg.x0, 6));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, 1365));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, 1));
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t0, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  let bin = Asm.assemble a in
  List.iter (fun fuel -> agree ~fuel "mid-instruction branch" bin) [ 1; 2; 3; 1_000 ]

(* --- branch-dense workload + fuel sweep -------------------------------- *)

let test_branchy () =
  let bin = Programs.branchy ~rounds:200 () in
  (* full run plus a dense fuel sweep: every prefix length of the loop
     body's superblock gets cut at least once, including inside the
     multi-instruction units the IR emitter fuses *)
  agree ~fuel:1_000_000 "branchy" bin;
  for fuel = 1 to 64 do
    agree ~fuel "branchy sweep" bin
  done;
  (* the superblock machinery must actually fire on this workload *)
  Metrics.enable ();
  let snap0 = Metrics.Snapshot.take () in
  ignore (run Engine.default ~fuel:100_000 bin);
  let d = Metrics.Snapshot.delta ~cur:(Metrics.Snapshot.take ()) ~prev:snap0 in
  let side_exits = Metrics.Snapshot.counter_value d "chimera_side_exits_total" in
  let fused = Metrics.Snapshot.counter_value d "chimera_fused_total" in
  Alcotest.(check bool) "side exits observed" true (side_exits > 0);
  Alcotest.(check bool) "fused pairs observed" true (fused > 0)

(* --- per-exit chaining -------------------------------------------------- *)

(* Every side exit keeps a chain link of its own, apart from the
   terminator's: once the branch-dense loop is warm, nearly every dispatch
   must follow a link or inline cache rather than go back to the block
   table. Here nearly every dispatch leaves through a side exit (the
   superblock unrolls the loop, and each iteration takes some random
   branch), so one exit slot shared by every exit, which each
   differently-targeted exit overwrites, reads 0.43. *)
let test_side_exits_chain () =
  let bin = Programs.branchy ~rounds:1_000_000 () in
  Metrics.enable ();
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:ext_isa () in
  Loader.init_machine m bin;
  ignore (Machine.run ~fuel:200_000 m);
  let snap0 = Metrics.Snapshot.take () in
  (match Machine.run ~fuel:1_000_000 m with
  | Machine.Fuel_exhausted -> ()
  | s -> Alcotest.failf "measured run stopped early: %s" (pp_snap (snapshot m s)));
  let d = Metrics.Snapshot.delta ~cur:(Metrics.Snapshot.take ()) ~prev:snap0 in
  let c = Metrics.Snapshot.counter_value d in
  let dispatches = c "chimera_dispatches_total" in
  let rate n = float_of_int n /. float_of_int (max 1 dispatches) in
  let side = rate (c "chimera_side_exits_total")
  and chain = rate (c "chimera_chain_hits_total") in
  if side < 0.2 then
    Alcotest.failf "side exits are %.4f of dispatches (want >= 0.2)" side;
  if chain < 0.99 then
    Alcotest.failf "chain hits are %.4f of %d dispatches (want >= 0.99)" chain
      dispatches

let () =
  Alcotest.run "chimera_superblock"
    [ ("boundaries",
       [ Alcotest.test_case "max_insts exactly reached" `Quick test_max_insts;
         Alcotest.test_case "degenerate entries" `Quick test_degenerate;
         Alcotest.test_case "branch to mid-instruction" `Quick
           test_mid_instruction_branch ]);
      ("branchy",
       [ Alcotest.test_case "branch-dense differential + stats" `Quick
           test_branchy ]);
      ("chaining",
       [ Alcotest.test_case "warm side exits follow their own links" `Quick
           test_side_exits_chain ]) ]
