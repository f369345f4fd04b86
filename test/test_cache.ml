(* Persistent translation cache, checked three ways:

   - a cold/warm property test: random branch- and jalr-dense programs run
     cold (recording, plan stored) then warm (plan seeded) under every
     engine — step, untiered with an icache model (its blocks stop at
     tier 2), untiered, tiered — and must retire
     bit-identically: same stop, registers, pc, retired and cycle counts.
     The cache may only change how fast translations appear, never what
     executes;

   - an SMC case: a program whose code is patched mid-run stores its plan
     under the digest of the patched bytes, so a pristine reload's lookup
     digest misses and the program recompiles cold — stale plans are
     unreachable by construction, no invalidation protocol needed;

   - a corruption-tolerance test: every way of damaging an on-disk entry
     (truncation at several depths, magic/version skew, payload bit flips,
     a well-framed but unmarshalable payload) must surface as a clean
     [Error reason] plus a [cache_reject] observation, with the run falling
     back cold and still retiring bit-identically. *)

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

(* --- random programs ---------------------------------------------------- *)

(* A loop mixing data-dependent branches (xorshift bits) with an indirect
   call through a four-entry function-pointer table: polymorphic call site
   plus effectively random branches, so superblock and tiered machines
   translate, promote and fill inline caches — all of which must round-trip
   through the plan. The xori is 4-byte-encodable so the SMC test can
   overwrite it in place. *)
let cache_program rng =
  let a = Asm.create ~name:"cachefuzz" () in
  Asm.func a "_start";
  let niter = 400 + Random.State.int rng 600 in
  Asm.li a Reg.t0 niter;
  Asm.li a Reg.t1 (0x2545F491 + Random.State.int rng 0x10000);
  Asm.li a Reg.s2 0;
  Asm.label a "Louter";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "Ldone";
  let patch_off = Asm.here a in
  Asm.inst a (Inst.Opi (Inst.Xori, Reg.s2, Reg.s2, 0x55));
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t4, Reg.t1, 13));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t4));
  Asm.inst a (Inst.Opi (Inst.Srli, Reg.t4, Reg.t1, 7));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t1, Reg.t1, Reg.t4));
  let nbr = 1 + Random.State.int rng 3 in
  for b = 1 to nbr do
    let l = Printf.sprintf "Lskip%d" b in
    Asm.inst a (Inst.Opi (Inst.Andi, Reg.t5, Reg.t1, 1 lsl b));
    Asm.branch_to a Inst.Beq Reg.t5 Reg.x0 l;
    Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, (2 * b) + 1));
    Asm.label a l
  done;
  Asm.inst a (Inst.Opi (Inst.Srli, Reg.t5, Reg.t1, 9));
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.t5, Reg.t5, 3));
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t5, Reg.t5, 3));
  Asm.la a Reg.t4 "ktab";
  Asm.inst a (Inst.Op (Inst.Add, Reg.t4, Reg.t4, Reg.t5));
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.t4; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.ra, Reg.t3, 0));
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
  let bin = Asm.assemble a in
  (bin, (Binfile.symbol bin "_start").Binfile.sym_addr + patch_off)

(* every translating engine records, so its runs can be exported *)
let super = Engine.Untiered { record = true }
let tiered = Engine.Tiered { record = true }

(* (engine, icache) pairs: the icache machine pins superblocks without
   the IR, the shape the tier cap gives it *)
let engines =
  [ (Engine.Step, None); (super, Some Icache.default_geometry); (super, None);
    (tiered, None) ]

(* fresh per-test cache directory under the system temp dir, removed at
   exit so manual runs outside the dune sandbox don't litter the cwd *)
let temp_cache =
  let n = ref 0 in
  let created = ref [] in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  at_exit (fun () ->
      List.iter (fun d -> try rm_rf d with Sys_error _ -> ()) !created);
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "chimera-cache-test-%d-%d" (Unix.getpid ()) !n)
    in
    created := dir :: !created;
    Cache.open_dir dir

let machine_for ?icache bin engine =
  let mem = Loader.load bin in
  let m = Machine.create ~engine ?icache ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  m

(* --- cold/warm property ------------------------------------------------- *)

let prop_cold_warm =
  QCheck.Test.make
    ~name:"cache: cold-then-warm bit-identical across step/block/super/tiered"
    ~count:8
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let bin, _ = cache_program (Random.State.make [| seed |]) in
      let c = temp_cache () in
      List.for_all
        (fun (engine, icache) ->
          let extra =
            Engine.tag engine ^ if icache = None then "" else ";icache"
          in
          let cold =
            let m = machine_for ?icache bin engine in
            let stop = Machine.run ~fuel:5_000_000 m in
            let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
            Cache.store_plan c ~key m;
            snapshot m stop
          in
          let m = machine_for ?icache bin engine in
          let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
          (match Cache.seed_plan c ~key m with
          | Ok n ->
              (* every translating engine must actually go warm *)
              if engine <> Engine.Step && n = 0 then
                QCheck.Test.fail_reportf "%s: plan hit seeded no blocks" extra
          | Error r ->
              QCheck.Test.fail_reportf "%s: warm lookup missed (%s)" extra r);
          let warm = snapshot m (Machine.run ~fuel:5_000_000 m) in
          if cold <> warm then
            QCheck.Test.fail_reportf "seed=%d %s: cold { %s } <> warm { %s }"
              seed extra (pp_snap cold) (pp_snap warm)
          else true)
        engines)

(* --- self-modifying code ------------------------------------------------ *)

(* The recorded run patches its own code mid-flight; its plan is stored
   under the digest of the patched bytes. A pristine reload digests the
   original bytes, so the lookup must miss and the machine recompiles cold
   — yet both sessions, applying the same patch at the same point, retire
   bit-identically. *)
let test_smc_unreachable () =
  let bin, patch_addr = cache_program (Random.State.make [| 42 |]) in
  let c = temp_cache () in
  let patched = Bytes.create 4 in
  ignore (Encode.write patched 0 (Inst.Opi (Inst.Xori, Reg.s2, Reg.s2, 0xAA)));
  let session () =
    let m = machine_for bin tiered in
    let mem = Machine.mem m in
    let stop1 = Machine.run ~fuel:5_000 m in
    Alcotest.(check bool) "phase 1 ran out of fuel" true (stop1 = Machine.Fuel_exhausted);
    Memory.poke_bytes mem patch_addr patched;
    Machine.invalidate_code m ~addr:patch_addr ~len:4;
    let stop = Machine.run ~fuel:5_000_000 m in
    (m, snapshot m stop)
  in
  (* recorded session: store under the post-patch digest *)
  let m1, cold = session () in
  let store_key =
    Cache.digest_mem (Machine.mem m1) ~isa:base_isa ~extra:"smc"
  in
  Cache.store_plan c ~key:store_key m1;
  (* pristine reload: the lookup digest differs, so seeding must miss *)
  let m2 = machine_for bin tiered in
  let lookup_key =
    Cache.digest_mem (Machine.mem m2) ~isa:base_isa ~extra:"smc"
  in
  Alcotest.(check bool) "SMC changed the content digest" true
    (store_key <> lookup_key);
  (match Cache.seed_plan c ~key:lookup_key m2 with
  | Error "miss" -> ()
  | Error r -> Alcotest.failf "expected a plain miss, got %s" r
  | Ok n -> Alcotest.failf "stale plan seeded %d blocks" n);
  (* the machine recompiles cold and, patched identically, retires
     identically *)
  let _, again = session () in
  Alcotest.(check bool)
    (Printf.sprintf "cold { %s } = recompiled { %s }" (pp_snap cold)
       (pp_snap again))
    true (cold = again)

(* --- corruption tolerance ----------------------------------------------- *)

let with_captured_events f =
  let evs = ref [] in
  Obs.enable ~sink:(fun arr len ->
      for i = 0 to len - 1 do
        evs := arr.(i) :: !evs
      done);
  let r = Fun.protect ~finally:Obs.disable f in
  (r, List.rev !evs)

let reject_reasons evs =
  List.filter_map
    (function Obs.Cache_reject { reason; _ } -> Some reason | _ -> None)
    evs

(* container layout constants (Container doc): magic 8, version 4, length 8 *)
let mutations =
  [ ("truncate-header", "truncated",
     fun b -> Bytes.sub b 0 (min 10 (Bytes.length b)));
    ("truncate-payload", "truncated",
     fun b -> Bytes.sub b 0 (Bytes.length b - (Bytes.length b / 3)));
    ("flip-magic", "magic",
     fun b ->
       let b = Bytes.copy b in
       Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
       b);
    ("bump-version", "version",
     fun b ->
       let b = Bytes.copy b in
       Bytes.set_int32_be b 8 (Int32.add (Bytes.get_int32_be b 8) 1l);
       b);
    ("flip-payload-bit", "checksum",
     fun b ->
       let b = Bytes.copy b in
       let i = 20 + ((Bytes.length b - 40) / 2) in
       Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
       b);
    ("unmarshalable-payload", "decode",
     fun b ->
       (* keep the frame honest — recompute length and checksum over a
          garbage payload — so only Marshal itself can object *)
       let payload = Bytes.make 32 'x' in
       let out = Bytes.create (20 + Bytes.length payload + 16) in
       Bytes.blit b 0 out 0 12;
       Bytes.set_int64_be out 12 (Int64.of_int (Bytes.length payload));
       Bytes.blit payload 0 out 20 (Bytes.length payload);
       let digest = Digest.subbytes out 0 (20 + Bytes.length payload) in
       Bytes.blit_string digest 0 out (20 + Bytes.length payload) 16;
       out) ]

let test_corruption_falls_back_cold () =
  let bin, _ = cache_program (Random.State.make [| 7 |]) in
  let c = temp_cache () in
  let extra = "fuzz" in
  let cold =
    let m = machine_for bin super in
    let stop = Machine.run ~fuel:5_000_000 m in
    let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
    Cache.store_plan c ~key m;
    snapshot m stop
  in
  let key =
    Cache.digest_mem (Loader.load bin) ~isa:base_isa ~extra
  in
  let path = Filename.concat (Cache.dir c) (key ^ ".plan") in
  let pristine =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let b = Bytes.create (in_channel_length ic) in
        really_input ic b 0 (Bytes.length b);
        b)
  in
  (* sanity: the pristine entry seeds *)
  (let m = machine_for bin super in
   match Cache.seed_plan c ~key m with
   | Ok n -> Alcotest.(check bool) "pristine entry seeds blocks" true (n > 0)
   | Error r -> Alcotest.failf "pristine entry rejected: %s" r);
  List.iter
    (fun (name, expected, mutate) ->
      let oc = open_out_bin path in
      output_bytes oc (mutate pristine);
      close_out oc;
      let m = machine_for bin super in
      let result, evs =
        with_captured_events (fun () -> Cache.seed_plan c ~key m)
      in
      (match result with
      | Error r ->
          Alcotest.(check string) (name ^ ": reject reason") expected r
      | Ok n -> Alcotest.failf "%s: corrupt entry seeded %d blocks" name n);
      (match reject_reasons evs with
      | [ r ] -> Alcotest.(check string) (name ^ ": cache_reject event") expected r
      | rs ->
          Alcotest.failf "%s: expected one cache_reject, saw %d" name
            (List.length rs));
      (* the load failed; the run itself must fall back cold, bit-identical *)
      let warm = snapshot m (Machine.run ~fuel:5_000_000 m) in
      if cold <> warm then
        Alcotest.failf "%s: cold { %s } <> fallback { %s }" name (pp_snap cold)
          (pp_snap warm))
    mutations;
  (* restore and confirm the directory still serves hits *)
  let oc = open_out_bin path in
  output_bytes oc pristine;
  close_out oc;
  let m = machine_for bin super in
  match Cache.seed_plan c ~key m with
  | Ok _ -> ignore (Cache.clear c)
  | Error r -> Alcotest.failf "restored entry rejected: %s" r

(* --- engine mismatch ---------------------------------------------------- *)

(* A plan exported under one engine and offered, under the same key, to a
   machine running another must be refused whole: [Error "flags"], no
   block seeded, and the run then retires bit-identically to a cold run
   on the machine's own engine. *)
let test_engine_mismatch_falls_back_cold () =
  let bin, _ = cache_program (Random.State.make [| 11 |]) in
  let c = temp_cache () in
  let extra = "mismatch" in
  (let m = machine_for bin tiered in
   ignore (Machine.run ~fuel:5_000_000 m);
   Cache.store_plan c ~key:(Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra) m);
  let cold =
    let m = machine_for bin super in
    snapshot m (Machine.run ~fuel:5_000_000 m)
  in
  let m = machine_for bin super in
  let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
  (match Cache.seed_plan c ~key m with
  | Error "flags" -> ()
  | Error r -> Alcotest.failf "expected an engine mismatch, got %s" r
  | Ok n -> Alcotest.failf "mismatched plan seeded %d blocks" n);
  Alcotest.(check int) "no block seeded" 0 (List.length (Machine.block_infos m));
  let fallback = snapshot m (Machine.run ~fuel:5_000_000 m) in
  Alcotest.(check bool)
    (Printf.sprintf "cold { %s } = fallback { %s }" (pp_snap cold) (pp_snap fallback))
    true (cold = fallback);
  (* the same entry still serves the engine it was made under *)
  (match Cache.seed_plan c ~key (machine_for bin tiered) with
  | Ok n -> Alcotest.(check bool) "matching engine seeds blocks" true (n > 0)
  | Error r -> Alcotest.failf "matching engine rejected: %s" r);
  (* the icache geometry is part of the configuration too *)
  let extra = "icache-mismatch" in
  (let m = machine_for bin super in
   ignore (Machine.run ~fuel:5_000_000 m);
   Cache.store_plan c ~key:(Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra) m);
  let m = machine_for ~icache:Icache.default_geometry bin super in
  let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
  match Cache.seed_plan c ~key m with
  | Error "flags" -> ()
  | Error r -> Alcotest.failf "expected an icache mismatch, got %s" r
  | Ok n -> Alcotest.failf "plan without icache seeded %d blocks" n

(* --- concurrent writers ------------------------------------------------- *)

(* Two domains storing the same key 100 times each: every write succeeds
   (each writer renames its own temp file), and what is left under the key
   is one complete container that reads back with a valid checksum. *)
let test_concurrent_same_key_writes () =
  let c = temp_cache () in
  let path = Filename.concat (Cache.dir c) "same-key.rewrite" in
  let payload = Array.init 4096 (fun i -> i * i) in
  let writer () =
    for _ = 1 to 100 do
      Container.write ~path ~magic:"CHTEST01" ~version:1 payload
    done
  in
  let doms = List.init 2 (fun _ -> Domain.spawn writer) in
  List.iter Domain.join doms;
  (match (Container.read ~path ~magic:"CHTEST01" ~version:1 : (int array, string) result) with
  | Ok v -> Alcotest.(check bool) "payload intact" true (v = payload)
  | Error reason -> Alcotest.failf "final container unreadable: %s" reason);
  Alcotest.(check (list string)) "no temp files left" [ "same-key.rewrite" ]
    (Array.to_list (Sys.readdir (Cache.dir c)))

let () =
  Alcotest.run "chimera_cache"
    [ ( "cold-warm",
        [ QCheck_alcotest.to_alcotest prop_cold_warm ] );
      ( "smc",
        [ Alcotest.test_case "stale plans unreachable after SMC" `Quick
            test_smc_unreachable ] );
      ( "corruption",
        [ Alcotest.test_case "every damage mode falls back cold" `Quick
            test_corruption_falls_back_cold ] );
      ( "engine",
        [ Alcotest.test_case "engine mismatch falls back cold" `Quick
            test_engine_mismatch_falls_back_cold ] );
      ( "writers",
        [ Alcotest.test_case "two domains store one key" `Quick
            test_concurrent_same_key_writes ] ) ]
