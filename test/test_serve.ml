(* Multi-tenant serving, checked six ways:

   - a tenant-isolation differential: N tenants submit a mixed population
     (jalr/branch-dense fuzz programs on a base hart, plus RVV programs the
     rewriter downgrades through SMILE trampolines — runtime self-modifying
     code) into one pooled server over one shared cache. Every pooled
     outcome must match a solo, uncached
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
     warm seed is served by a template;

   - shared rewrite contexts: lazily rewriting guests served warm on two
     domains at once match their solo runs and leave the cache's memoized
     context as it was;

   - no warm-up on warm requests: a warm request translates
     nothing, and allocates an exactly budgeted number of words on the
     minor and on the major heap. *)

let base_isa = Ext.rv64gc
let ext_isa = Ext.rv64gcv
let fuel = 10_000_000

(* A loop mixing data-dependent branches (xorshift bits) with an indirect
   call through a function-pointer table, like the cache tests use: the
   translated engine translates, side-exits and fills inline caches, all
   of which must behave identically under the pool. *)
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

let run_isolation () =
  let progs = population () in
  (* solo oracle: uncached, on this domain — the ground truth *)
  let expect =
    List.map
      (fun (tag, bin, isa) ->
        let stop, retired, cycles, _ =
          Serve.execute ~isa ~mode:Chbp.Downgrade ~fuel bin
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
        match Serve.submit srv ~tenant ~isa ~fuel bin with
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
          "tenant isolation broken (%s): pooled %s retired=%d \
           cycles=%d, solo retired=%d cycles=%d"
          tag o.Serve.o_stop o.Serve.o_retired o.Serve.o_cycles retired
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
        Serve.execute ~cache:c ~isa ~mode:Chbp.Downgrade ~fuel bin
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
  let isa = base_isa and mode = Chbp.Downgrade in
  let guests =
    [ ( "perlbench_r",
        let p = Specgen.find "perlbench_r" in
        Specgen.build { p with Specgen.sp_seed = 3; sp_rounds = 16; sp_hidden = 0.0 } );
      ("indirecty", Programs.indirecty ~name:"serve-test-indirecty" ~rounds:20_000 ()) ]
  in
  let oracle =
    List.map
      (fun (tag, bin) ->
        let stop, retired, cycles, _ = Serve.execute ~isa ~mode ~fuel bin in
        (tag, (exit_of_stop stop, retired, cycles)))
      guests
  in
  let cache = temp_cache () in
  List.iter (fun (_, bin) -> ignore (Serve.execute ~cache ~isa ~mode ~fuel bin)) guests;
  Metrics.enable ();
  (* the template builders: one replayed seed per guest, made the way
     [Serve.execute] seeds, and run once to count a replayed run's
     inline-cache hits; right after each builder, a probe seeded from the
     template must match it block for block and inline cache for inline
     cache. Neither seed touches the TLB: the replay decodes from the
     guest's bytes through the page table, and a clone decodes nothing.
     Every decode-cache fill fetches through the TLB, so no TLB traffic
     also means both seeds leave the decode cache empty *)
  let tag = Serve.cfg_tag ?tiered:None ~mode in
  let seeded name bin =
    let ctx =
      match Cache.load_rewrite cache ~key:(Cache.digest_bin bin ~extra:tag) with
      | Ok ctx -> ctx
      | Error r -> Alcotest.failf "%s: rewrite context missing (%s)" name r
    in
    let rt = Chimera_rt.create ctx in
    let m =
      Machine.create ~engine:(Engine.Translated { record = true })
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
          ( List.sort compare (Machine.block_entries m),
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
        let _, _, replay_tlb = replayed and _, _, clone_tlb = cloned in
        Alcotest.(check (pair int int)) (name ^ ": replay seeds without the TLB")
          (0, 0) replay_tlb;
        Alcotest.(check (pair int int)) (name ^ ": clone seeds without the TLB")
          (0, 0) clone_tlb;
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
        let stop, retired, cycles, warm = Serve.execute ~cache ~isa ~mode ~fuel bin in
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
    Serve.execute ~cache ~isa:base_isa ~mode:Chbp.Downgrade ~fuel bin
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

(* --- warm requests translate nothing ------------------------------------- *)

(* A warm request seeds its blocks at the top tier from the cached
   plan, which holds every block the cold run translated, so a second
   cached run of each guest translates exactly nothing. The guests are
   short, like a served request, so a block seeded below the top tier
   would have to be retranslated on the way up. The perlbench_r build
   hides no functions, so no lazy rewrite changes its code digest and the
   second run is warm. *)
let test_warm_translates_nothing () =
  let cache = temp_cache () in
  let guests =
    [ ("fibonacci", Programs.fibonacci ~name:"serve-test-warm" ~rounds:2000 ());
      ("perlbench_r",
       Specgen.build
         { (Specgen.find "perlbench_r") with
           Specgen.sp_hidden = 0.;
           sp_rounds = 16;
           sp_seed = 3 }) ]
  in
  let run bin =
    Serve.execute ~cache ~isa:base_isa ~mode:Chbp.Downgrade ~fuel bin
  in
  Metrics.enable ();
  List.iter (fun (_, bin) -> ignore (run bin)) guests;
  List.iter
    (fun (name, bin) ->
      let t0 = counter "chimera_translations_total" in
      let _, _, _, warm = run bin in
      Alcotest.(check bool) (name ^ ": second run is warm") true warm;
      Alcotest.(check int)
        (name ^ ": warm translations")
        0
        (counter "chimera_translations_total" - t0))
    guests

(* --- lazy rewrites leave shared contexts untouched ----------------------- *)

(* A warm request's rewrite context is the one the cache memoized, shared by
   every request of its digest on every domain. A guest with hidden
   functions (steady's omnetpp_r, on fewer rounds) rewrites lazily, so
   each of its runs must switch to a private copy before extending it:
   runs on two domains at once retire and cycle exactly like the solo
   uncached run, and the memoized context's stats and rewritten sections
   are unchanged afterwards. *)
let test_lazy_copies_shared_context () =
  let isa = base_isa and mode = Chbp.Downgrade in
  let bin =
    Specgen.build
      { (Specgen.find "omnetpp_r") with Specgen.sp_seed = 105; sp_rounds = 16 }
  in
  let run ?cache () =
    let stop, retired, cycles, _ = Serve.execute ?cache ~isa ~mode ~fuel bin in
    (exit_of_stop stop, retired, cycles)
  in
  let solo = run () in
  let cache = temp_cache () in
  Alcotest.(check bool) "cold run matches solo" true (run ~cache () = solo);
  let key = Cache.digest_bin bin ~extra:(Serve.cfg_tag ?tiered:None ~mode) in
  let load () =
    match Cache.load_rewrite cache ~key with
    | Ok ctx -> ctx
    | Error r -> Alcotest.failf "rewrite context missing (%s)" r
  in
  let shared = load () in
  let stats () = { (Chbp.stats shared) with Chbp.sites = (Chbp.stats shared).Chbp.sites } in
  let sections () =
    List.map
      (fun s -> (s.Binfile.sec_name, s.Binfile.sec_addr, Bytes.to_string s.Binfile.sec_data))
      (Chbp.result shared).Binfile.sections
  in
  let stats0 = stats () and result0 = Chbp.result shared and sections0 = sections () in
  (match Chbp.extend shared ~root:(Chbp.original shared).Binfile.entry with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a shared context accepted a lazy rewrite");
  (* one run on the shared context, by hand, to see the copy it rewrote *)
  let rt = Chimera_rt.create shared in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa () in
  let stop = Chimera_rt.run rt ~fuel m in
  Alcotest.(check bool) "hand-made run matches solo" true
    ((exit_of_stop stop, Machine.retired m, Machine.cycles m) = solo);
  let own = Chimera_rt.chbp rt in
  Alcotest.(check bool) "the run rewrote lazily, in a private copy" true
    (own != shared && (Chbp.stats own).Chbp.lazy_sites > 0);
  let requests () = List.init 4 (fun _ -> run ~cache ()) in
  let other = Domain.spawn requests in
  let mine = requests () in
  List.iter
    (fun got ->
      Alcotest.(check bool) "concurrent warm run matches solo" true (got = solo))
    (mine @ Domain.join other);
  Alcotest.(check bool) "the cache still serves the same context" true (load () == shared);
  Alcotest.(check bool) "its stats are unchanged" true (stats () = stats0);
  Alcotest.(check bool) "its rewritten binary is the one it remembered" true
    (Chbp.result shared == result0);
  Alcotest.(check bool) "its rewritten sections are unchanged" true
    (sections () = sections0)

(* --- heap allocation of warm requests -------------------------------------- *)

(* Words a warm [Serve.execute] allocates, both exact and repeating from
   request to request: [Gc.minor_words], and the words it allocates
   directly on the major heap of the calling domain ([Gc.counters]' major
   words less its promoted words). The guests are serve-mix-sized
   perlbench_r#3 and fib2000. Frames are checked in the domain's buffer,
   the rewrite context is the cache's memoized one and a template seed decodes
   nothing, so what is left is mostly the request's guest pages and TLB
   arrays. When each request read its files into fresh file-sized buffers
   and unmarshaled its context, the major words read 127,584 and 12,110;
   when a seed also re-decoded the plan's saved instructions into the
   decode cache, perlbench_r#3 read 28,746 major and 105,551 minor words
   (fib2000 9,742 and 22,116). The budgets are the recorded counts plus
   2%. *)
let heap_budgets =
  [ ("perlbench_r#3", (38_473 * 102 / 100, 24_648 * 102 / 100));
    ("fib2000", (21_888 * 102 / 100, 9_742 * 102 / 100)) ]

let test_warm_heap_words () =
  let cache = temp_cache () in
  let guests =
    [ ("perlbench_r#3",
       Specgen.build
         { (Specgen.find "perlbench_r") with
           Specgen.sp_hidden = 0.;
           sp_rounds = 16;
           sp_seed = 3 });
      ("fib2000", Programs.fibonacci ~rounds:2000 ()) ]
  in
  let words () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words (), major -. promoted)
  in
  let request bin =
    let minor0, major0 = words () in
    let _, _, _, warm =
      Serve.execute ~cache ~isa:base_isa ~mode:Chbp.Downgrade ~fuel bin
    in
    let minor1, major1 = words () in
    Alcotest.(check bool) "request is warm" true warm;
    (int_of_float (minor1 -. minor0), int_of_float (major1 -. major0))
  in
  List.iter
    (fun (name, bin) ->
      (* cold, then the replaying first warm request *)
      ignore (Serve.execute ~cache ~isa:base_isa ~mode:Chbp.Downgrade ~fuel bin);
      ignore (request bin);
      let ((minor, major) as first) = request bin in
      Alcotest.(check (pair int int)) (name ^ ": warm requests allocate the same")
        first (request bin);
      let minor_budget, major_budget = List.assoc name heap_budgets in
      if minor > minor_budget then
        Alcotest.failf "%s: a warm request allocated %d minor-heap words (budget %d)"
          name minor minor_budget;
      if major > major_budget then
        Alcotest.failf "%s: a warm request allocated %d major-heap words (budget %d)"
          name major major_budget)
    guests

let () =
  Alcotest.run "chimera_serve"
    [ ( "isolation",
        [ Alcotest.test_case "pooled tenants match solo runs (tiered)" `Quick
            run_isolation ] );
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
            test_dedup ] );
      ( "contexts",
        [ Alcotest.test_case "lazy rewrites leave shared contexts untouched" `Quick
            test_lazy_copies_shared_context ] );
      ( "heap",
        [ Alcotest.test_case "warm request major-heap budget" `Quick
            test_warm_heap_words ] );
      ( "warm",
        [ Alcotest.test_case "a second cached run translates exactly 0" `Quick
            test_warm_translates_nothing ] ) ]
