(* Tiered execution and jalr inline caches, checked two ways:

   - a tier-differential property test: random branch- and jalr-dense
     programs run through three phases — a warm run cut by exact fuel, a
     continuation across an in-place SMC patch (which retires hot blocks and
     forces every epoch-guarded inline cache to re-resolve), and a
     continuation across a warm-TLB permission downgrade that makes the next
     store fault. Step, untiered superblock, tiered and tiered-without-IC
     machines must agree bit-for-bit on stop state, registers, pc and
     counters at every phase boundary;

   - a golden test pinning the inline-cache state machine: one call site
     driven through one, then three, then nine distinct targets must be
     observed Mono, then Poly, then Mega — the same site pc across all three
     checkpoints. *)

let base_isa = Ext.rv64gc

type snap = {
  sn_stop : Machine.stop;
  sn_regs : int64 list;
  sn_pc : int;
  sn_retired : int;
  sn_cycles : int;
}

let snapshot m stop =
  { sn_stop = stop;
    sn_regs = List.init 32 (fun i -> Machine.get_reg m (Reg.of_int i));
    sn_pc = Machine.pc m;
    sn_retired = Machine.retired m;
    sn_cycles = Machine.cycles m }

let pp_snap s =
  let stop =
    match s.sn_stop with
    | Machine.Exited c -> Printf.sprintf "exit %d" c
    | Machine.Faulted f -> Printf.sprintf "fault %s" (Fault.to_string f)
    | Machine.Fuel_exhausted -> "fuel"
  in
  Printf.sprintf "%s pc=%#x retired=%d cycles=%d" stop s.sn_pc s.sn_retired
    s.sn_cycles

let check_snaps ~what oracle got =
  if oracle <> got then
    QCheck.Test.fail_reportf "%s: oracle { %s } <> engine { %s }" what
      (pp_snap oracle) (pp_snap got)
  else true

(* --- random branch/jalr-dense programs --------------------------------- *)

(* A loop mixing data-dependent branches (xorshift state bits) with an
   indirect call through a four-entry function-pointer table indexed by
   fresh state bits: the call site is polymorphic and the branches are
   effectively random, so tiered machines promote, recompile and fill
   inline caches while the oracle just steps. *)
let tier_program rng =
  let a = Asm.create ~name:"tierfuzz" () in
  Asm.func a "_start";
  let niter = 800 + Random.State.int rng 800 in
  Asm.li a Reg.t0 niter;
  Asm.li a Reg.t1 (0x2545F491 + Random.State.int rng 0x10000);
  Asm.li a Reg.s2 0;
  Asm.la a Reg.s4 "data";
  Asm.label a "Louter";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "Ldone";
  let patch_off = Asm.here a in
  (* s2 is outside the compressed register file: this xori always encodes
     in 4 bytes, so the SMC phase can overwrite it in place *)
  Asm.inst a (Inst.Opi (Inst.Xori, Reg.s2, Reg.s2, 0x55));
  (* xorshift64 step *)
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t4, Reg.t1, 13));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t4));
  Asm.inst a (Inst.Opi (Inst.Srli, Reg.t4, Reg.t1, 7));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t4));
  (* a couple of data-dependent branches on fresh bits *)
  let nbr = 1 + Random.State.int rng 3 in
  for b = 1 to nbr do
    let l = Printf.sprintf "Lskip%d" b in
    Asm.inst a (Inst.Opi (Inst.Andi, Reg.t5, Reg.t1, 1 lsl b));
    Asm.branch_to a Inst.Beq Reg.t5 Reg.x0 l;
    Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, (2 * b) + 1));
    Asm.label a l
  done;
  (* indirect call: table index from two fresh state bits *)
  Asm.inst a (Inst.Opi (Inst.Srli, Reg.t5, Reg.t1, 9));
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.t5, Reg.t5, 3));
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t5, Reg.t5, 3));
  Asm.la a Reg.t4 "ktab";
  Asm.inst a (Inst.Op (Inst.Add, Reg.t4, Reg.t4, Reg.t5));
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.t4; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.ra, Reg.t3, 0));
  (* at least one store per iteration, so a permission downgrade faults
     within one trip round the loop *)
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.s2; rs1 = Reg.s4; imm = 0 });
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.j a "Louter";
  Asm.label a "Ldone";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.s2, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  for k = 0 to 3 do
    Asm.func a (Printf.sprintf "kern%d" k);
    Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, (3 * k) + 1));
    Asm.ret a
  done;
  Asm.rlabel a "ktab";
  for k = 0 to 3 do
    Asm.rword_label a (Printf.sprintf "kern%d" k)
  done;
  Asm.dlabel a "data";
  Asm.dword64 a 0L;
  let bin = Asm.assemble a in
  (bin, (Binfile.symbol bin "_start").Binfile.sym_addr + patch_off)

let tiered = Engine.Super { ir = true; tiered = true; ic = true; record = false }

let run_tier_phases engine bin ~patch_addr ~f1 ~f2 =
  let mem = Loader.load bin in
  let m = Machine.create ~engine ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  let s1 = snapshot m (Machine.run ~fuel:f1 m) in
  (* SMC: flip the xori's immediate under cached (and, tiered, hot) blocks;
     the invalidation retires them and severs every IC and chain link into
     them — re-resolution must be transparent *)
  let buf = Bytes.create 4 in
  ignore (Encode.write buf 0 (Inst.Opi (Inst.Xori, Reg.s2, Reg.s2, 0xAA)));
  Memory.poke_bytes mem patch_addr buf;
  Machine.invalidate_code m ~addr:patch_addr ~len:4;
  let s2 = snapshot m (Machine.run ~fuel:f2 m) in
  (* warm-TLB permission downgrade: writable pages turn read-only mid-loop;
     the next store must fault at the same pc in every engine, through any
     tier, relaid layout or inline-cached dispatch *)
  List.iter
    (fun (s : Binfile.section) ->
      if s.Binfile.sec_perm.Memory.w then
        Memory.set_perm mem ~addr:s.Binfile.sec_addr
          ~len:(Bytes.length s.Binfile.sec_data) Memory.perm_r)
    bin.Binfile.sections;
  let s3 = snapshot m (Machine.run ~fuel:50_000 m) in
  (s1, s2, s3)

let prop_tier_differential =
  QCheck.Test.make
    ~name:
      "tiering: step/untiered/tiered/no-ic bit-identical across SMC and TLB downgrade"
    ~count:12
    QCheck.(
      make
        Gen.(
          let* seed = int_bound 100_000 in
          let* f1 = int_range 500 8_000 in
          let* f2 = int_range 500 8_000 in
          return (seed, f1, f2)))
    (fun (seed, f1, f2) ->
      let bin, patch_addr = tier_program (Random.State.make [| seed |]) in
      let r1, r2, r3 = run_tier_phases Engine.Step bin ~patch_addr ~f1 ~f2 in
      List.for_all
        (fun (label, engine) ->
          let b1, b2, b3 = run_tier_phases engine bin ~patch_addr ~f1 ~f2 in
          let what p =
            Printf.sprintf "tier seed=%d f1=%d f2=%d %s phase%d" seed f1 f2 label p
          in
          check_snaps ~what:(what 1) r1 b1
          && check_snaps ~what:(what 2) r2 b2
          && check_snaps ~what:(what 3) r3 b3)
        [ ("super", Engine.default);
          ("tiered", tiered);
          ("tiered-noic", Engine.Super { ir = true; tiered = true; ic = false; record = false }) ])

(* --- IC state machine golden ------------------------------------------- *)

(* One indirect call site driven through three stages: [rounds] calls to a
   single kernel, then [rounds] cycling three kernels, then [rounds] cycling
   nine (one more than the polymorphic table holds). Checked mid-run by
   fuel: the same site must read Mono after stage one, Poly after stage two
   and Mega at exit. *)
let ic_stages_bin ~rounds =
  let a = Asm.create ~name:"icstages" () in
  Asm.func a "_start";
  Asm.li a Reg.t0 (3 * rounds);
  Asm.li a Reg.s2 0;
  (* kernel index *)
  Asm.li a Reg.s3 rounds;
  Asm.li a Reg.s4 (2 * rounds);
  Asm.li a Reg.s5 0;
  (* checksum *)
  Asm.label a "Louter";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "Ldone";
  (* stage 1 while t0 > 2*rounds: index pinned to 0 *)
  Asm.branch_to a Inst.Blt Reg.s4 Reg.t0 "Lstage1";
  (* stage 2 while t0 > rounds: index cycles 0,1,2 *)
  Asm.branch_to a Inst.Blt Reg.s3 Reg.t0 "Lstage2";
  (* stage 3: index cycles 0..8 *)
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, 1));
  Asm.li a Reg.t5 9;
  Asm.branch_to a Inst.Blt Reg.s2 Reg.t5 "Ldispatch";
  Asm.li a Reg.s2 0;
  Asm.j a "Ldispatch";
  Asm.label a "Lstage1";
  Asm.li a Reg.s2 0;
  Asm.j a "Ldispatch";
  Asm.label a "Lstage2";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, 1));
  Asm.li a Reg.t5 3;
  Asm.branch_to a Inst.Blt Reg.s2 Reg.t5 "Ldispatch";
  Asm.li a Reg.s2 0;
  Asm.label a "Ldispatch";
  Asm.la a Reg.t5 "ktab";
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t4, Reg.s2, 3));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t5, Reg.t5, Reg.t4));
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.t5; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.ra, Reg.t3, 0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.j a "Louter";
  Asm.label a "Ldone";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.s5, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  for k = 0 to 8 do
    Asm.func a (Printf.sprintf "kern%d" k);
    Asm.inst a (Inst.Opi (Inst.Addi, Reg.s5, Reg.s5, (2 * k) + 1));
    Asm.ret a
  done;
  Asm.rlabel a "ktab";
  for k = 0 to 8 do
    Asm.rword_label a (Printf.sprintf "kern%d" k)
  done;
  Asm.assemble a

let state_name = function
  | `Empty -> "empty"
  | `Mono -> "mono"
  | `Poly -> "poly"
  | `Mega -> "mega"

let test_ic_transitions () =
  let rounds = 2_000 in
  let bin = ic_stages_bin ~rounds in
  let mem = Loader.load bin in
  let m = Machine.create ~engine:tiered ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  (* each stage retires well over 20k instructions (>= 10 per round), so a
     checkpoint 20k into a stage is past its warm-up but inside it *)
  let stage_fuel = ref 0 in
  let run_until fuel =
    match Machine.run ~fuel:(fuel - !stage_fuel) m with
    | Machine.Fuel_exhausted -> stage_fuel := fuel
    | s ->
        Alcotest.failf "stopped early at fuel %d: %s" fuel
          (match s with
          | Machine.Exited c -> Printf.sprintf "exit %d" c
          | Machine.Faulted f -> Fault.to_string f
          | Machine.Fuel_exhausted -> assert false)
  in
  let state_of site =
    match List.find_opt (fun i -> i.Machine.ici_site = site) (Machine.ic_infos m) with
    | Some i -> i.Machine.ici_state
    | None -> Alcotest.failf "site %#x has no inline cache" site
  in
  (* checkpoint 1: inside stage one, after its warm-up. The hottest site
     with a single cached target is the call site (kernel returns are also
     mono, but the call site must be among the monomorphic ones). *)
  run_until 20_000;
  let mono_sites =
    List.filter_map
      (fun i ->
        if i.Machine.ici_state = `Mono && i.Machine.ici_hits > 100 then
          Some i.Machine.ici_site
        else None)
      (Machine.ic_infos m)
  in
  Alcotest.(check bool) "stage 1 produced hot monomorphic sites" true
    (mono_sites <> []);
  (* checkpoint 2: inside stage three-thirds... stage 2. Exactly one of the
     mono sites must have widened to polymorphic (the call site; returns
     stay mono). *)
  run_until (20_000 + (rounds * 14));
  let poly_sites =
    List.filter (fun s -> state_of s = `Poly) mono_sites
  in
  (match poly_sites with
  | [ _ ] -> ()
  | l ->
      Alcotest.failf "expected exactly one mono->poly site, got %d: [%s]"
        (List.length l)
        (String.concat "; "
           (List.map
              (fun s -> Printf.sprintf "%#x:%s" s (state_name (state_of s)))
              mono_sites)));
  let site = List.hd poly_sites in
  (* run to completion: nine targets overflow the polymorphic table *)
  (match Machine.run ~fuel:10_000_000 m with
  | Machine.Exited _ -> ()
  | s ->
      Alcotest.failf "program did not exit: %s"
        (match s with
        | Machine.Faulted f -> Fault.to_string f
        | Machine.Fuel_exhausted -> "fuel"
        | Machine.Exited _ -> assert false));
  Alcotest.(check string) "call site went megamorphic" "mega"
    (state_name (state_of site));
  (* the transition is one-way: no site is both poly and mega, and the
     machine still reports the kernel-return sites as monomorphic *)
  Alcotest.(check bool) "return sites stayed monomorphic" true
    (List.exists (fun i -> i.Machine.ici_state = `Mono) (Machine.ic_infos m))

(* tiered runs promote: the same program must report blocks above tier 1
   and a recompiled (relaid) block once hot enough *)
let test_tier_promotion_visible () =
  let bin = Programs.branchy ~rounds:20_000 () in
  let mem = Loader.load bin in
  let m = Machine.create ~engine:tiered ~mem ~isa:Ext.rv64gcv () in
  Loader.init_machine m bin;
  (match Machine.run ~fuel:2_000_000 m with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "branchy did not exit");
  let infos = Machine.block_infos m in
  Alcotest.(check bool) "a block reached tier 3" true
    (List.exists (fun b -> b.Machine.bi_tier = 3) infos);
  Alcotest.(check bool) "a hot block was relaid from its exit profile" true
    (List.exists (fun b -> b.Machine.bi_relaid) infos)

let () =
  Alcotest.run "chimera_tiering"
    [ ("differential", [ QCheck_alcotest.to_alcotest prop_tier_differential ]);
      ("inline-caches",
       [ Alcotest.test_case "mono -> poly -> mega transition" `Quick
           test_ic_transitions ]);
      ("promotion",
       [ Alcotest.test_case "tier promotion and relayout observable" `Quick
           test_tier_promotion_visible ]) ]
