(* Tiered execution and jalr inline caches, checked two ways:

   - a tier-differential property test: random branch- and jalr-dense
     programs run through three phases — a warm run cut by exact fuel, a
     continuation across an in-place SMC patch (which retires hot blocks and
     forces every epoch-guarded inline cache to re-resolve), and a
     continuation across a warm-TLB permission downgrade that makes the next
     store fault. Step, untiered, tiered and tiered-with-icache machines
     must agree bit-for-bit on stop state, registers, pc and counters at
     every phase boundary, and the tiered machine must dispatch blocks at
     tiers 1 and 2, not only at the top;

   - a shape cap: an untiered machine with an icache model never
     translates above tier 2;

   - a golden test pinning the inline-cache state machine: one call site
     driven through one, then three, then nine distinct targets must be
     observed Mono, then Poly, then Mega — the same site pc across all three
     checkpoints;

   - a page-boundary property: 64- and 32-bit loads and stores (single,
     paired and read-modify-write) at every offset of a page's last 16
     bytes, with the next page unmapped, read-only or mapped, leave
     bit-identical state and faults in every engine;

   - an allocation budget: once a tiered machine is warm, translated code
     and chained dispatch allocate (next to) nothing per retired
     instruction. *)

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

let tiered = Engine.Tiered { record = false }

(* Runs the three phases and reports, per tier, whether the machine
   dispatched a block at it: a promotion to tier k + 1 follows [hot]
   dispatches at tier k, and a block still at tier k after a phase with a
   nonzero dispatch count was dispatched there. Only tiered machines count
   dispatches, so the others report none. *)
let run_tier_phases ?icache engine bin ~patch_addr ~f1 ~f2 =
  let dispatched = Array.make 4 false in
  let note_blocks m =
    List.iter
      (fun b -> if b.Machine.bi_hot > 0 then dispatched.(b.Machine.bi_tier) <- true)
      (Machine.block_infos m)
  in
  Obs.enable ~sink:(fun evs n ->
      for i = 0 to n - 1 do
        match evs.(i) with
        | Obs.Tier_promote { tier; hot; _ } when hot > 0 -> dispatched.(tier - 1) <- true
        | _ -> ()
      done);
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let mem = Loader.load bin in
  let m = Machine.create ~engine ?icache ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  let s1 = snapshot m (Machine.run ~fuel:f1 m) in
  note_blocks m;
  (* SMC: flip the xori's immediate under cached (and, tiered, hot) blocks;
     the invalidation retires them and severs every IC and chain link into
     them — re-resolution must be transparent *)
  let buf = Bytes.create 4 in
  ignore (Encode.write buf 0 (Inst.Opi (Inst.Xori, Reg.s2, Reg.s2, 0xAA)));
  Memory.poke_bytes mem patch_addr buf;
  Machine.invalidate_code m ~addr:patch_addr ~len:4;
  let s2 = snapshot m (Machine.run ~fuel:f2 m) in
  note_blocks m;
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
  note_blocks m;
  ((s1, s2, s3), dispatched)

(* per tier, the cases in which the tiered arm dispatched a block there *)
let tiered_cases_at = Array.make 4 0

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
      List.for_all
        (fun (label, engine, icache) ->
          (* the oracle runs under the same icache model, which charges
             cycles *)
          let (r1, r2, r3), _ =
            run_tier_phases ?icache Engine.Step bin ~patch_addr ~f1 ~f2
          in
          let (b1, b2, b3), dispatched =
            run_tier_phases ?icache engine bin ~patch_addr ~f1 ~f2
          in
          let what p =
            Printf.sprintf "tier seed=%d f1=%d f2=%d %s phase%d" seed f1 f2 label p
          in
          if label = "tiered" then
            Array.iteri
              (fun k d -> if d then tiered_cases_at.(k) <- tiered_cases_at.(k) + 1)
              dispatched;
          check_snaps ~what:(what 1) r1 b1
          && check_snaps ~what:(what 2) r2 b2
          && check_snaps ~what:(what 3) r3 b3)
        [ ("super", Engine.default, None);
          ("tiered", tiered, None);
          (* the icache model caps the tiered climb at tier 2 *)
          ("tiered-icache", tiered, Some Icache.default_geometry) ])

(* The property, then a shape-coverage check over its cases: the tiered
   arm must have run blocks below the top tier, so the straight-line and
   IR-less superblock shapes stay differential-tested against the oracle
   (one short case may stop before any block reaches tier 2). *)
let test_tier_differential =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_tier_differential in
  ( name,
    speed,
    fun () ->
      Array.fill tiered_cases_at 0 4 0;
      run ();
      if tiered_cases_at.(1) = 0 || tiered_cases_at.(2) = 0 then
        Alcotest.failf "tiered arm dispatched at tier 1 in %d cases, tier 2 in %d"
          tiered_cases_at.(1) tiered_cases_at.(2) )

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

(* an icache model caps translation at tier 2: an untiered machine with
   one translates superblocks, never IR-optimized blocks *)
let test_icache_caps_untiered () =
  let bin = Programs.branchy ~rounds:20_000 () in
  let mem = Loader.load bin in
  let m =
    Machine.create ~engine:Engine.default ~icache:Icache.default_geometry ~mem
      ~isa:Ext.rv64gcv ()
  in
  Loader.init_machine m bin;
  (match Machine.run ~fuel:2_000_000 m with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "branchy did not exit");
  let infos = Machine.block_infos m in
  Alcotest.(check bool) "superblocks at tier 2" true
    (List.exists (fun b -> b.Machine.bi_tier = 2) infos);
  Alcotest.(check (list int)) "no block above tier 2" []
    (List.filter_map
       (fun b -> if b.Machine.bi_tier > 2 then Some b.Machine.bi_entry else None)
       infos)

(* --- page-boundary fault equivalence ------------------------------------ *)

(* A loop walks one memory access up a data page a byte at a time, so the
   access runs interpreted, then translated at every tier, and its last
   trips land on the page's final offsets. The page's successor is
   unmapped, read-only or mapped. Whatever the access does there (complete
   in-page, cross the boundary, fault at the successor's first byte after a
   partial store), every engine must leave the same registers, pc, retired
   count and bytes, and stop with the same fault as the step oracle. *)

type access = Ld | Lw | Sd | Sw | Ld_pair | Sd_pair | Rmw
type succ = Unmapped | Read_only | Mapped

let access_name = function
  | Ld -> "ld" | Lw -> "lw" | Sd -> "sd" | Sw -> "sw"
  | Ld_pair -> "ld+ld" | Sd_pair -> "sd+sd" | Rmw -> "ld;add;sd"

let succ_name = function
  | Unmapped -> "unmapped" | Read_only -> "read-only" | Mapped -> "mapped"

(* every access kind at every one of the page's last 16 offsets, under
   every kind of successor page *)
let pb_cases =
  List.concat_map
    (fun access ->
      List.concat_map
        (fun succ -> List.init 16 (fun i -> (access, succ, 4080 + i)))
        [ Unmapped; Read_only; Mapped ])
    [ Ld; Lw; Sd; Sw; Ld_pair; Sd_pair; Rmw ]

let pb_text = 0x10000
let pb_page = 0x40000
let pb_span = 400  (* trips before the last one: enough to reach tier 3 *)

(* s4 walks the page, t0 counts trips down, loads sum into s2, stores
   write t1 (stepped as xorshift, so every store writes a fresh value) *)
let pb_program access ~off =
  let mem width rd imm = Inst.Load { width; unsigned = false; rd; rs1 = Reg.s4; imm } in
  let st width rs2 imm = Inst.Store { width; rs2; rs1 = Reg.s4; imm } in
  let sum r = Inst.Op (Inst.Add, Reg.s2, Reg.s2, r) in
  let mix =
    [ Inst.Opi (Inst.Slli, Reg.t3, Reg.t1, 13);
      Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t3);
      Inst.Opi (Inst.Srli, Reg.t3, Reg.t1, 7);
      Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t3) ]
  in
  let body =
    match access with
    | Ld -> [ mem Inst.D Reg.t2 0; sum Reg.t2 ]
    | Lw -> [ mem Inst.W Reg.t2 0; sum Reg.t2 ]
    | Sd -> st Inst.D Reg.t1 0 :: mix
    | Sw -> st Inst.W Reg.t1 0 :: mix
    | Ld_pair -> [ mem Inst.D Reg.t2 0; mem Inst.D Reg.t3 8; sum Reg.t2; sum Reg.t3 ]
    | Sd_pair -> st Inst.D Reg.t1 0 :: st Inst.D Reg.t1 8 :: mix
    | Rmw ->
        (* the middle op reads the loaded register twice *)
        [ mem Inst.D Reg.t2 0;
          Inst.Op (Inst.Add, Reg.t2, Reg.t2, Reg.t2);
          st Inst.D Reg.t2 0;
          sum Reg.t2 ]
  in
  let tail =
    [ Inst.Opi (Inst.Addi, Reg.s4, Reg.s4, 1); Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1) ]
  in
  let nloop = 1 + List.length body + List.length tail + 1 in
  let start = pb_page + off - pb_span in
  let hi = (start + 0x800) lsr 12 in
  [ Inst.Lui (Reg.s4, hi);
    Inst.Opi (Inst.Addi, Reg.s4, Reg.s4, start - (hi lsl 12));
    Inst.Opi (Inst.Addi, Reg.t0, Reg.x0, pb_span + 1);
    Inst.Lui (Reg.t1, 0x2545F);
    Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 0x491);
    (* loop: *)
    Inst.Branch (Inst.Beq, Reg.t0, Reg.x0, 4 * nloop) ]
  @ body @ tail
  @ [ Inst.Jal (Reg.x0, -4 * (nloop - 1));
      (* done: *)
      Inst.Opi (Inst.Andi, Reg.a0, Reg.s2, 255);
      Inst.Opi (Inst.Addi, Reg.a7, Reg.x0, 93);
      Inst.Ecall ]

(* The run's snapshot and the bytes of the data page (and of its
   successor, when mapped), which random [seed] data fills first. *)
let pb_run engine ~seed (access, succ, off) =
  let mem = Memory.create () in
  Memory.map mem ~addr:pb_text ~len:4096 Memory.perm_rx;
  Memory.map mem ~addr:pb_page ~len:4096 Memory.perm_rw;
  let npages = if succ = Unmapped then 1 else 2 in
  if succ <> Unmapped then
    Memory.map mem ~addr:(pb_page + 4096) ~len:4096
      (if succ = Read_only then Memory.perm_r else Memory.perm_rw);
  let rng = Random.State.make [| seed |] in
  Memory.poke_bytes mem pb_page
    (Bytes.init (npages * 4096) (fun _ -> Char.chr (Random.State.int rng 256)));
  let buf = Bytes.create 4 in
  List.iteri
    (fun i inst ->
      ignore (Encode.write buf 0 inst);
      Memory.poke_bytes mem (pb_text + (4 * i)) buf)
    (pb_program access ~off);
  let m = Machine.create ~engine ~mem ~isa:base_isa () in
  Machine.set_pc m pb_text;
  let snap = snapshot m (Machine.run ~fuel:100_000 m) in
  (snap, Memory.peek_bytes mem pb_page (npages * 4096))

(* The QCheck seed is fixed, so tier-1 runs the same data every time; a
   failure reports the shrunk data seed with the first case that differs. *)
let pb_qcheck_seed = 0x9a9e

let prop_page_boundary =
  QCheck.Test.make
    ~name:"page boundary: ld/sd/lw/sw faults and bytes identical across engines"
    ~count:3
    QCheck.(set_print (Printf.sprintf "data seed %d") (int_bound 1_000_000))
    (fun seed ->
      List.for_all
        (fun ((access, succ, off) as case) ->
          let oracle, obytes = pb_run Engine.Step ~seed case in
          List.for_all
            (fun (label, engine) ->
              let got, bytes = pb_run engine ~seed case in
              if oracle <> got || obytes <> bytes then
                QCheck.Test.fail_reportf
                  "seed=%d %s at page offset %d, successor %s, %s: step { %s } <> { %s }%s"
                  seed (access_name access) off (succ_name succ) label (pp_snap oracle)
                  (pp_snap got)
                  (if obytes <> bytes then " (memory differs)"
                   else if oracle.sn_regs <> got.sn_regs then " (registers differ)"
                   else "")
              else true)
            [ ("super", Engine.default); ("tiered", tiered) ])
        pb_cases)

(* Minor words allocated per retired instruction by a fuel-limited run of
   an already warm tiered machine. [Gc.minor_words] counts the calling
   domain only, and the whole measurement runs on the test's own domain.
   The warm-up run promotes the hot loop to the top tier and fills its
   chain links and inline caches; the measured run is then pure steady
   state. *)
let warm_alloc_per_inst bin ~warm ~fuel =
  let mem = Loader.load bin in
  let m = Machine.create ~engine:tiered ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  let expect_fuel what = function
    | Machine.Fuel_exhausted -> ()
    | s -> Alcotest.failf "%s run stopped early: %s" what (pp_snap (snapshot m s))
  in
  expect_fuel "warm-up" (Machine.run ~fuel:warm m);
  let r0 = Machine.retired m in
  let w0 = Gc.minor_words () in
  let stop = Machine.run ~fuel m in
  let w1 = Gc.minor_words () in
  expect_fuel "measured" stop;
  (w1 -. w0) /. float_of_int (Machine.retired m - r0)

let test_alloc_budget () =
  List.iter
    (fun (name, bin) ->
      let per = warm_alloc_per_inst bin ~warm:200_000 ~fuel:1_000_000 in
      if per > 0.01 then
        Alcotest.failf "%s: %.4f minor words per retired instruction (budget 0.01)"
          name per)
    [ ("fibonacci", Programs.fibonacci ~rounds:1_000_000 ());
      ("branchy", Programs.branchy ~rounds:1_000_000 ()) ]

let () =
  Alcotest.run "chimera_tiering"
    [ ("differential", [ test_tier_differential ]);
      ("inline-caches",
       [ Alcotest.test_case "mono -> poly -> mega transition" `Quick
           test_ic_transitions ]);
      ("promotion",
       [ Alcotest.test_case "tier promotion and relayout observable" `Quick
           test_tier_promotion_visible ]);
      ("allocation",
       [ Alcotest.test_case "warm tiered run allocation budget" `Quick
           test_alloc_budget ]);
      ("shapes",
       [ Alcotest.test_case "untiered icache machine stays at tier 2" `Quick
           test_icache_caps_untiered ]);
      ("page-boundary",
       [ QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| pb_qcheck_seed |])
           prop_page_boundary ]) ]
