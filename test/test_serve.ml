(* Multi-tenant serving, checked five ways:

   - a tenant-isolation differential: N tenants submit a mixed population
     (jalr/branch-dense fuzz programs on a base hart, plus RVV programs the
     rewriter downgrades through SMILE trampolines — runtime self-modifying
     code) into one pooled server over one shared cache, tiered and
     untiered. Every pooled outcome must match a solo, uncached
     [Serve.execute] of the same binary bit-for-bit: stop, retired and
     cycles. Scheduling, co-tenants and cache temperature must not leak
     into execution;

   - [Sched.Pool] sanity: every job runs exactly once across worker
     domains, raising jobs don't wedge [drain], shutdown is idempotent and
     fences later submits;

   - admission control: a saturated queue rejects deterministically and
     rejected requests never execute;

   - shared templates: two domains seeding warm requests from one cache's
     in-process templates at once each retire exactly what a solo uncached
     run retires, take the same inline-cache hits a replayed seed takes,
     and leave the machine the templates were taken on untouched;

   - store dedup: re-storing an artifact whose digest already holds a
     valid entry skips the write and bumps the dedup counter; the second
     warm seed is served by a template. *)

let base_isa = Ext.rv64gc
let ext_isa = Ext.rv64gcv
let fuel = 10_000_000

(* A loop mixing data-dependent branches (xorshift bits) with an indirect
   call through a function-pointer table, like the cache tests use: the
   superblock and tiered engines translate, promote and fill inline
   caches, all of which must behave identically under the pool. *)
let fuzz_program seed =
  let rng = Random.State.make [| 7000 + seed |] in
  let a = Asm.create ~name:(Printf.sprintf "servefuzz%d" seed) () in
  Asm.func a "_start";
  let niter = 300 + Random.State.int rng 500 in
  Asm.li a Reg.t0 niter;
  Asm.li a Reg.t1 (0x1E3779B9 + Random.State.int rng 0x10000);
  Asm.li a Reg.s2 0;
  Asm.label a "Louter";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "Ldone";
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
  Asm.inst a (Inst.Opi (Inst.Srli, Reg.t5, Reg.t1, 11));
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
    Asm.inst a (Inst.Opi (Inst.Addi, Reg.s2, Reg.s2, (5 * k) + 1));
    Asm.ret a
  done;
  Asm.rlabel a "ktab";
  for k = 0 to 3 do
    Asm.rword_label a (Printf.sprintf "kern%d" k)
  done;
  Asm.assemble a

(* fresh per-test cache directory, removed at exit (test_cache idiom) *)
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
        (Printf.sprintf "chimera-serve-test-%d-%d" (Unix.getpid ()) !n)
    in
    created := dir :: !created;
    Cache.open_dir dir

(* --- tenant isolation --------------------------------------------------- *)

(* Mixed population: base-hart fuzz programs plus RVV programs the
   Downgrade rewrite carries onto the vector hart through SMILE (the
   trampoline writes are runtime SMC — the serving path must keep them
   private to the request's view). *)
let population () =
  [ ("fuzz0", fuzz_program 0, base_isa);
    ("fuzz1", fuzz_program 1, base_isa);
    ("fuzz2", fuzz_program 2, base_isa);
    ("mm", Programs.matmul ~name:"serve-test-mm" `Ext ~n:6, ext_isa);
    ("vec", Programs.vecadd ~name:"serve-test-vec" `Ext ~n:96, ext_isa) ]

let exit_of_stop = function Machine.Exited c -> Some c | _ -> None

let run_isolation ~tiered () =
  let progs = population () in
  (* solo oracle: uncached, on this domain — the ground truth *)
  let expect =
    List.map
      (fun (tag, bin, isa) ->
        let stop, retired, cycles, _ =
          Serve.execute ~isa ~mode:Chbp.Downgrade ~tiered ~fuel bin
        in
        (tag, (exit_of_stop stop, retired, cycles)))
      progs
  in
  let c = temp_cache () in
  let srv = Serve.create ~cache:c ~base_workers:2 ~ext_workers:2 () in
  (* two waves per tenant: the second wave finds whatever the first left
     in the shared cache (possibly mid-flight — temperature is a race, the
     results must not be) *)
  let submitted = ref [] in
  for wave = 0 to 1 do
    List.iteri
      (fun ti (tag, bin, isa) ->
        let tenant = Printf.sprintf "tenant%d" ti in
        match Serve.submit srv ~tenant ~isa ~tiered ~fuel bin with
        | Ok id -> submitted := (id, tag) :: !submitted
        | Error `Saturated -> Alcotest.failf "unexpected saturation (%s)" tag)
      progs;
    ignore wave
  done;
  Serve.drain srv;
  let os = Serve.outcomes srv in
  let st = Serve.stats srv in
  Serve.shutdown srv;
  Alcotest.(check int) "all admitted" (2 * List.length progs) st.Serve.admitted;
  Alcotest.(check int) "all completed" st.Serve.admitted st.Serve.completed;
  List.iter
    (fun (id, tag) ->
      let o = List.find (fun o -> o.Serve.o_id = id) os in
      let exit_code, retired, cycles = List.assoc tag expect in
      if
        o.Serve.o_exit <> exit_code
        || o.Serve.o_retired <> retired
        || o.Serve.o_cycles <> cycles
      then
        Alcotest.failf
          "tenant isolation broken (%s, tiered=%b): pooled %s retired=%d \
           cycles=%d, solo retired=%d cycles=%d"
          tag tiered o.Serve.o_stop o.Serve.o_retired o.Serve.o_cycles retired
          cycles)
    !submitted;
  (* per-tenant totals: each tenant ran its program twice *)
  List.iteri
    (fun ti (tag, _, _) ->
      let tenant = Printf.sprintf "tenant%d" ti in
      let _, retired, _ = List.assoc tag expect in
      let ts =
        List.find
          (fun t -> t.Serve.ts_tenant = tenant)
          (Serve.tenant_stats srv)
      in
      Alcotest.(check int)
        (tenant ^ " retired total")
        (2 * retired) ts.Serve.ts_retired)
    progs;
  (* sequential warm pass against the populated cache: the plan seeds and
     execution still matches the uncached oracle *)
  List.iter
    (fun (tag, bin, isa) ->
      let stop, retired, _, warm =
        Serve.execute ~cache:c ~isa ~mode:Chbp.Downgrade ~tiered ~fuel bin
      in
      let exit_code, retired', _ = List.assoc tag expect in
      Alcotest.(check bool) (tag ^ " warm after pool run") true warm;
      if exit_of_stop stop <> exit_code || retired <> retired' then
        Alcotest.failf "%s: warm run diverged (retired %d vs %d)" tag retired
          retired')
    progs

(* --- pool sanity --------------------------------------------------------- *)

let test_pool () =
  let p = Sched.Pool.create ~base:2 ~ext:2 () in
  let hits = Atomic.make 0 in
  for i = 0 to 199 do
    Sched.Pool.submit p ~prefer_ext:(i land 1 = 0) (fun _ -> Atomic.incr hits)
  done;
  (* a raising job must not kill its worker or wedge drain *)
  Sched.Pool.submit p ~prefer_ext:false (fun _ -> failwith "boom");
  Sched.Pool.drain p;
  Alcotest.(check int) "every job ran exactly once" 200 (Atomic.get hits);
  Alcotest.(check int) "queue drained" 0 (Sched.Pool.queue_depth p);
  Alcotest.(check bool) "peak depth recorded" true (Sched.Pool.peak_depth p > 0);
  Sched.Pool.shutdown p;
  Sched.Pool.shutdown p (* idempotent *);
  (match Sched.Pool.submit p ~prefer_ext:false (fun _ -> ()) with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ());
  match Sched.Pool.create ~base:0 ~ext:0 () with
  | _ -> Alcotest.fail "workerless pool must be refused"
  | exception Invalid_argument _ -> ()

(* with stealing off and one class empty, jobs route to the class that has
   workers instead of stranding *)
let test_pool_no_steal () =
  let p = Sched.Pool.create ~steal:false ~base:1 ~ext:0 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 32 do
    Sched.Pool.submit p ~prefer_ext:true (fun _ -> Atomic.incr hits)
  done;
  Sched.Pool.drain p;
  Sched.Pool.shutdown p;
  Alcotest.(check int) "ext-preferring jobs ran on the base worker" 32
    (Atomic.get hits)

(* --- admission control --------------------------------------------------- *)

let test_saturation () =
  let srv = Serve.create ~max_queue:0 ~base_workers:1 ~ext_workers:0 () in
  let bin = Programs.fibonacci ~name:"serve-test-sat" ~rounds:64 () in
  (match Serve.submit srv ~tenant:"sat" ~fuel bin with
  | Error `Saturated -> ()
  | Ok _ -> Alcotest.fail "zero-capacity queue admitted a request");
  let st = Serve.stats srv in
  Serve.shutdown srv;
  Alcotest.(check int) "rejected" 1 st.Serve.rejected;
  Alcotest.(check int) "admitted" 0 st.Serve.admitted;
  Alcotest.(check int) "nothing executed" 0 st.Serve.completed

(* --- shared templates ------------------------------------------------------ *)

let counter name = Metrics.Snapshot.counter_value (Metrics.Snapshot.take ()) name

(* Serve-mix's warm pair: a Specgen guest with victim-entry fault recovery
   and an indirect-call kernel whose polymorphic call site lives on its
   inline cache. Every request after the first seeds by cloning the
   template one replay left, on whichever domain it runs. *)
let test_shared_templates () =
  let isa = base_isa and mode = Chbp.Downgrade and tiered = true in
  let guests =
    [ ( "perlbench_r",
        let p = Specgen.find "perlbench_r" in
        Specgen.build { p with Specgen.sp_seed = 3; sp_rounds = 16; sp_hidden = 0.0 } );
      ("indirecty", Programs.indirecty ~name:"serve-test-indirecty" ~rounds:20_000 ()) ]
  in
  let oracle =
    List.map
      (fun (tag, bin) ->
        let stop, retired, cycles, _ = Serve.execute ~isa ~mode ~tiered ~fuel bin in
        (tag, (exit_of_stop stop, retired, cycles)))
      guests
  in
  let cache = temp_cache () in
  List.iter (fun (_, bin) -> ignore (Serve.execute ~cache ~isa ~mode ~tiered ~fuel bin)) guests;
  Metrics.enable ();
  (* the template builders: one replayed seed per guest, made the way
     [Serve.execute] seeds, and run once to count a replayed run's
     inline-cache hits; right after each builder, a probe seeded from the
     template must match it block for block, down to the decode fetches
     the replay made through the TLB *)
  let tag = Serve.cfg_tag ~mode ~tiered in
  let seeded name bin =
    let ctx =
      match Cache.load_rewrite cache ~key:(Cache.digest_bin bin ~extra:tag) with
      | Ok ctx -> ctx
      | Error r -> Alcotest.failf "%s: rewrite context missing (%s)" name r
    in
    let rt = Chimera_rt.create ctx in
    let m =
      Machine.create ~engine:(Serve.engine ~tiered ~record:true)
        ~mem:(Chimera_rt.load rt) ~isa ()
    in
    let key = Cache.digest_mem (Machine.mem m) ~isa ~extra:tag in
    let count () =
      List.map counter
        [ "chimera_cache_plan_shared_total"; "chimera_tlb_hits_total";
          "chimera_tlb_misses_total" ]
    in
    let c0 = count () in
    (match Cache.seed_plan cache ~key m with
    | Ok n -> Alcotest.(check bool) (name ^ ": seeds blocks") true (n > 0)
    | Error r -> Alcotest.failf "%s: seed rejected (%s)" name r);
    match List.map2 ( - ) (count ()) c0 with
    | [ shared; tlb_hits; tlb_misses ] ->
        ( rt,
          m,
          shared,
          ( List.sort compare (Machine.block_infos m),
            List.sort compare (Machine.ic_infos m),
            (tlb_hits, tlb_misses) ) )
    | _ -> assert false
  in
  let builders =
    List.map
      (fun (name, bin) ->
        let rt, m, shared, replayed = seeded name bin in
        Alcotest.(check int) (name ^ ": builder replays") 0 shared;
        let _, _, shared, cloned = seeded name bin in
        Alcotest.(check int) (name ^ ": probe clones") 1 shared;
        Alcotest.(check bool) (name ^ ": probe seeded like the builder") true
          (cloned = replayed);
        let hits0 = counter "chimera_ic_hits_total" in
        let stop = Chimera_rt.run rt ~fuel m in
        let hits = counter "chimera_ic_hits_total" - hits0 in
        let exit_code, retired, cycles = List.assoc name oracle in
        Alcotest.(check bool) (name ^ ": builder run matches solo") true
          (exit_of_stop stop = exit_code
          && Machine.retired m = retired && Machine.cycles m = cycles);
        (name, m, hits))
      guests
  in
  let ic_state () =
    List.map (fun (name, m, _) -> (name, List.sort compare (Machine.ic_infos m))) builders
  in
  let before = ic_state () in
  let shared0 = counter "chimera_cache_plan_shared_total" in
  let hits0 = counter "chimera_ic_hits_total" in
  let requests () =
    List.init 20 (fun i ->
        let name, bin = List.nth guests (i mod 2) in
        let stop, retired, cycles, warm = Serve.execute ~cache ~isa ~mode ~tiered ~fuel bin in
        (name, (exit_of_stop stop, retired, cycles), warm))
  in
  let other = Domain.spawn requests in
  let mine = requests () in
  let results = mine @ Domain.join other in
  List.iter
    (fun (name, got, warm) ->
      Alcotest.(check bool) (name ^ ": warm") true warm;
      if got <> List.assoc name oracle then
        Alcotest.failf "%s: templated run differs from the solo oracle" name)
    results;
  Alcotest.(check int) "every seed cloned a template" (shared0 + 40)
    (counter "chimera_cache_plan_shared_total");
  (* inline-cache hits are per machine and deterministic: each templated
     run takes exactly the hits its replayed builder took *)
  let per_pair = List.fold_left (fun acc (_, _, h) -> acc + h) 0 builders in
  Alcotest.(check int) "inline-cache hits of 40 templated runs" (20 * per_pair)
    (counter "chimera_ic_hits_total" - hits0);
  Alcotest.(check bool) "template builders' inline caches untouched" true
    (ic_state () = before)

(* --- store dedup ---------------------------------------------------------- *)

let test_dedup () =
  let cache = temp_cache () in
  let bin = Programs.fibonacci ~name:"serve-test-dedup" ~rounds:400 () in
  let run () =
    Serve.execute ~cache ~isa:base_isa ~mode:Chbp.Downgrade ~tiered:false ~fuel
      bin
  in
  let dedups () = counter "chimera_cache_dedup_total" in
  let shared () = counter "chimera_cache_plan_shared_total" in
  Metrics.enable ();
  let d0 = dedups () and s0 = shared () in
  let _, r1, _, warm1 = run () in
  let d1 = dedups () in
  Alcotest.(check bool) "first run is cold" false warm1;
  Alcotest.(check int) "fresh stores never dedup" d0 d1;
  Alcotest.(check int) "a cold run shares no template" s0 (shared ());
  let _, r2, _, warm2 = run () in
  let d2 = dedups () in
  Alcotest.(check bool) "second run is warm" true warm2;
  Alcotest.(check bool) "identical re-store deduped" true (d2 > d1);
  Alcotest.(check int) "dedup changed nothing about execution" r1 r2;
  let s2 = shared () in
  let _, r3, _, warm3 = run () in
  Alcotest.(check bool) "third run is warm" true warm3;
  Alcotest.(check int) "the second warm seed clones the template" (s2 + 1) (shared ());
  Alcotest.(check int) "the template changed nothing about execution" r1 r3

let () =
  Alcotest.run "chimera_serve"
    [ ( "isolation",
        [ Alcotest.test_case "pooled tenants match solo runs (untiered)" `Quick
            (run_isolation ~tiered:false);
          Alcotest.test_case "pooled tenants match solo runs (tiered)" `Quick
            (run_isolation ~tiered:true) ] );
      ( "pool",
        [ Alcotest.test_case "jobs run once; shutdown fences" `Quick test_pool;
          Alcotest.test_case "no-steal routing avoids workerless classes"
            `Quick test_pool_no_steal ] );
      ( "admission",
        [ Alcotest.test_case "saturated queue rejects" `Quick test_saturation ] );
      ( "templates",
        [ Alcotest.test_case "two domains share one cache's templates" `Quick
            test_shared_templates ] );
      ( "dedup",
        [ Alcotest.test_case "valid entries are not rewritten" `Quick
            test_dedup ] ) ]
