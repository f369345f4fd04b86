(* Persistent translation cache, checked three ways:

   - a cold/warm property test: random branch- and jalr-dense programs run
     cold (recording, plan stored) then warm (plan seeded) under both
     engines — step and translated — and must retire bit-identically: same stop, registers, pc, retired and cycle counts.
     The cache may only change how fast translations appear, never what
     executes. The first warm machine replays the plan and leaves an
     in-process template; a second one is seeded from that template and
     must be indistinguishable from the replayed one — same blocks, inline
     caches and trace events after seeding, same run, same exported plan;

   - an SMC case: a program whose code is patched mid-run stores its plan
     under the digest of the patched bytes, so a pristine reload's lookup
     digest misses and the program recompiles cold — stale plans are
     unreachable by construction, no invalidation protocol needed;

   - a corruption-tolerance test: every way of damaging an on-disk entry
     (truncation at several depths, magic/version skew, payload bit flips,
     a well-framed but unmarshalable payload) must surface as a clean
     [Error reason] plus a [cache_reject] observation, with the run falling
     back cold and still retiring bit-identically — and the same damage to
     a rewrite context the cache has memoized must surface the same way,
     never serving the memoized context past the file;

   - digest goldens: the keys of a few fixed binaries and images are pinned
     as hex, so a change to how digests are computed cannot orphan (or,
     worse, alias) existing cache directories, and two domains digesting
     concurrently through their scratch buffers get the sequential keys. *)

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
   plus effectively random branches, so translated machines
   translate, side-exit and fill inline caches — all of which must
   round-trip through the plan. The xori is 4-byte-encodable so the SMC test can
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

(* the translating engine records, so its runs can be exported *)
let translated = Engine.Translated { record = true }

let engines = [ Engine.Step; translated ]

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

let machine_for bin engine =
  let mem = Loader.load bin in
  let m = Machine.create ~engine ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  m

let with_captured_events f =
  let evs = ref [] in
  Obs.enable ~sink:(fun arr len ->
      for i = 0 to len - 1 do
        evs := arr.(i) :: !evs
      done);
  let r = Fun.protect ~finally:Obs.disable f in
  (r, List.rev !evs)

(* --- cold/warm property ------------------------------------------------- *)

let infos m =
  (List.sort compare (Machine.block_entries m), List.sort compare (Machine.ic_infos m))

let shared_seeds () =
  Metrics.Snapshot.counter_value (Metrics.Snapshot.take ())
    "chimera_cache_plan_shared_total"

let prop_cold_warm =
  QCheck.Test.make
    ~name:"cache: cold-then-warm bit-identical across step/translated"
    ~count:8
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      Metrics.enable ();
      let bin, _ = cache_program (Random.State.make [| seed |]) in
      let c = temp_cache () in
      List.for_all
        (fun engine ->
          let extra = Engine.tag engine in
          let cold =
            let m = machine_for bin engine in
            let stop = Machine.run ~fuel:5_000_000 m in
            let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
            Cache.store_plan c ~key m;
            snapshot m stop
          in
          let m = machine_for bin engine in
          let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
          let replayed, replay_events =
            with_captured_events (fun () -> Cache.seed_plan c ~key m)
          in
          (match replayed with
          | Ok n ->
              (* every translating engine must actually go warm *)
              if engine <> Engine.Step && n = 0 then
                QCheck.Test.fail_reportf "%s: plan hit seeded no blocks" extra
          | Error r ->
              QCheck.Test.fail_reportf "%s: warm lookup missed (%s)" extra r);
          (* a second warm machine is seeded from the replay's template *)
          let mt = machine_for bin engine in
          let shared0 = shared_seeds () in
          let cloned, clone_events =
            with_captured_events (fun () -> Cache.seed_plan c ~key mt)
          in
          if shared_seeds () <> shared0 + 1 then
            QCheck.Test.fail_reportf "%s: second seed did not use the template" extra;
          if cloned <> replayed then
            QCheck.Test.fail_reportf "%s: template and replay seeded differently" extra;
          if infos mt <> infos m then
            QCheck.Test.fail_reportf "%s: seeded block/inline-cache state differs" extra;
          if clone_events <> replay_events then
            QCheck.Test.fail_reportf "%s: template seed traced %d events, replay %d"
              extra (List.length clone_events) (List.length replay_events);
          let warm = snapshot m (Machine.run ~fuel:5_000_000 m) in
          let templated = snapshot mt (Machine.run ~fuel:5_000_000 mt) in
          if cold <> warm then
            QCheck.Test.fail_reportf "seed=%d %s: cold { %s } <> warm { %s }"
              seed extra (pp_snap cold) (pp_snap warm)
          else if cold <> templated then
            QCheck.Test.fail_reportf "seed=%d %s: cold { %s } <> templated { %s }"
              seed extra (pp_snap cold) (pp_snap templated)
          else if infos mt <> infos m then
            QCheck.Test.fail_reportf "seed=%d %s: block/inline-cache state diverged in the run"
              seed extra
          else if Machine.export_plan mt <> Machine.export_plan m then
            QCheck.Test.fail_reportf "seed=%d %s: exported plans differ" seed extra
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
    let m = machine_for bin translated in
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
  let m2 = machine_for bin translated in
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
    let m = machine_for bin translated in
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
  (let m = machine_for bin translated in
   match Cache.seed_plan c ~key m with
   | Ok n -> Alcotest.(check bool) "pristine entry seeds blocks" true (n > 0)
   | Error r -> Alcotest.failf "pristine entry rejected: %s" r);
  List.iter
    (fun (name, expected, mutate) ->
      let oc = open_out_bin path in
      output_bytes oc (mutate pristine);
      close_out oc;
      let m = machine_for bin translated in
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
  let m = machine_for bin translated in
  match Cache.seed_plan c ~key m with
  | Ok _ -> ignore (Cache.clear c)
  | Error r -> Alcotest.failf "restored entry rejected: %s" r

(* --- memoized rewrite contexts ------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A warm [load_rewrite] serves the context it decoded before only while
   the file still verifies with that checksum. Every damage mode of the
   corruption suite, applied after the memo holds the context, must
   surface with the suite's reason, and the request must fall back cold
   and run like its solo run; a valid file with another checksum must be
   decoded again and replace the memoized context. *)
let test_context_memo_obeys_file () =
  let bin = Programs.matmul `Ext ~n:8 in
  let isa = base_isa and mode = Chbp.Downgrade in
  let run ?cache () =
    let stop, retired, cycles, _ =
      Serve.execute ?cache ~isa ~mode ~fuel:5_000_000 bin
    in
    (stop, retired, cycles)
  in
  let solo = run () in
  let c = temp_cache () in
  let key = Cache.digest_bin bin ~extra:(Serve.cfg_tag ?tiered:None ~mode) in
  let path = Filename.concat (Cache.dir c) (key ^ ".rewrite") in
  let load () =
    match Cache.load_rewrite c ~key with
    | Ok ctx -> ctx
    | Error r -> Alcotest.failf "stored context rejected: %s" r
  in
  let check_solo what got =
    Alcotest.(check bool) (what ^ ": runs like the solo run") true (got = solo)
  in
  check_solo "cold" (run ~cache:c ());
  let memoized = load () in
  Alcotest.(check bool) "decoded context is shared" true (Chbp.is_shared memoized);
  Alcotest.(check bool) "warm load serves the memoized context" true
    (load () == memoized);
  check_solo "warm" (run ~cache:c ());
  let pristine = read_file path in
  List.iter
    (fun (name, expected, mutate) ->
      write_file path (Bytes.to_string (mutate (Bytes.of_string pristine)));
      let result, evs = with_captured_events (fun () -> Cache.load_rewrite c ~key) in
      (match result with
      | Error r -> Alcotest.(check string) (name ^ ": reject reason") expected r
      | Ok ctx ->
          Alcotest.failf "%s: damaged entry loaded (%s the memoized context)" name
            (if ctx == memoized then "served" else "not"));
      Alcotest.(check (list string)) (name ^ ": cache_reject event") [ expected ]
        (reject_reasons evs);
      check_solo (name ^ " fallback") (run ~cache:c ()))
    mutations;
  let other =
    Chbp.rewrite ~options:{ (Chbp.default_options mode) with Chbp.batch = false } bin
  in
  Sys.remove path;
  Cache.store_rewrite c ~key other;
  Alcotest.(check bool) "the other context has another checksum" true
    (read_file path <> pristine);
  let decoded = load () in
  Alcotest.(check bool) "another checksum is decoded, not served from the memo" true
    (decoded != memoized && Chbp.stats decoded = Chbp.stats other);
  Alcotest.(check bool) "the new context replaces it in the memo" true
    (load () == decoded);
  ignore (Cache.clear c)

(* --- engine mismatch ---------------------------------------------------- *)

(* A plan exported under one engine and offered, under the same key, to a
   machine running another must be refused whole: [Error "flags"], no
   block seeded, and the run then retires bit-identically to a cold run
   on the machine's own engine. *)
let test_engine_mismatch_falls_back_cold () =
  let bin, _ = cache_program (Random.State.make [| 11 |]) in
  let c = temp_cache () in
  let extra = "mismatch" in
  (let m = machine_for bin translated in
   ignore (Machine.run ~fuel:5_000_000 m);
   Cache.store_plan c ~key:(Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra) m);
  let cold =
    let m = machine_for bin Engine.Step in
    snapshot m (Machine.run ~fuel:5_000_000 m)
  in
  let m = machine_for bin Engine.Step in
  let key = Cache.digest_mem (Machine.mem m) ~isa:base_isa ~extra in
  (match Cache.seed_plan c ~key m with
  | Error "flags" -> ()
  | Error r -> Alcotest.failf "expected an engine mismatch, got %s" r
  | Ok n -> Alcotest.failf "mismatched plan seeded %d blocks" n);
  Alcotest.(check int) "no block seeded" 0 (List.length (Machine.block_entries m));
  let fallback = snapshot m (Machine.run ~fuel:5_000_000 m) in
  Alcotest.(check bool)
    (Printf.sprintf "cold { %s } = fallback { %s }" (pp_snap cold) (pp_snap fallback))
    true (cold = fallback);
  (* the same entry still serves the engine it was made under *)
  match Cache.seed_plan c ~key (machine_for bin translated) with
  | Ok n -> Alcotest.(check bool) "matching engine seeds blocks" true (n > 0)
  | Error r -> Alcotest.failf "matching engine rejected: %s" r

(* --- digests ------------------------------------------------------------- *)

(* [(name, bin)] and the pinned [digest_bin] / [digest_mem] of a fresh load /
   [digest_mem] of the downgrade-rewritten image, all under [~extra:"golden"].
   Every artifact in an existing cache directory is addressed by these
   bytes: a mismatch means the digest changed, not the test. *)
let golden_inputs () =
  [ ("fibonacci", Programs.fibonacci ~rounds:1000 (),
     ("0a89589870b23a815b27e7eacc2c6d47", "41024607ccc027e2e77b8658b8dc8788",
      "120b1628cdbd77da734d8275bd440d69"));
    ("perlbench_r", Specgen.build (Specgen.find "perlbench_r"),
     ("8efd63060de9f315e2dde5abab345aee", "669668af84737d0873cca558f035014d",
      "4f624cdec83a24086f11f334086cd5fd")) ]

let rewritten_image bin =
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  Chimera_rt.load (Chimera_rt.create ctx)

let digests bin ~rewritten =
  ( Cache.digest_bin bin ~extra:"golden",
    Cache.digest_mem (Loader.load bin) ~isa:bin.Binfile.isa ~extra:"golden",
    Cache.digest_mem rewritten ~isa:Ext.rv64gc ~extra:"golden" )

let test_digest_golden () =
  List.iter
    (fun (name, bin, (gb, gm, gr)) ->
      let b, m, r = digests bin ~rewritten:(rewritten_image bin) in
      Alcotest.(check string) (name ^ ": digest_bin") gb b;
      Alcotest.(check string) (name ^ ": digest_mem") gm m;
      Alcotest.(check string) (name ^ ": digest_mem rewritten") gr r)
    (golden_inputs ())

(* Two domains, 100 rounds each of every digest, interleaved: each domain
   digests through its own scratch buffer, so every key must equal the
   sequential one. *)
let test_digest_two_domains () =
  let inputs =
    List.map (fun (name, bin, _) -> (name, bin, rewritten_image bin)) (golden_inputs ())
  in
  let sequential =
    List.map (fun (_, bin, rewritten) -> digests bin ~rewritten) inputs
  in
  let worker () =
    let mismatches = ref 0 in
    for _ = 1 to 100 do
      List.iter2
        (fun (_, bin, rewritten) want ->
          if digests bin ~rewritten <> want then incr mismatches)
        inputs sequential
    done;
    !mismatches
  in
  let doms = List.init 2 (fun _ -> Domain.spawn worker) in
  List.iteri
    (fun i d ->
      Alcotest.(check int) (Printf.sprintf "domain %d mismatches" i) 0 (Domain.join d))
    doms

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
      ( "memo",
        [ Alcotest.test_case "memoized contexts obey the file" `Quick
            test_context_memo_obeys_file ] );
      ( "engine",
        [ Alcotest.test_case "engine mismatch falls back cold" `Quick
            test_engine_mismatch_falls_back_cold ] );
      ( "digest",
        [ Alcotest.test_case "keys match the pinned goldens" `Quick
            test_digest_golden;
          Alcotest.test_case "two domains digest concurrently" `Quick
            test_digest_two_domains ] );
      ( "writers",
        [ Alcotest.test_case "two domains store one key" `Quick
            test_concurrent_same_key_writes ] ) ]
