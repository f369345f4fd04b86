(* Multi-tenant serving, checked four ways:

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

   - store dedup: re-storing an artifact whose digest already holds a
     valid entry skips the write and bumps the dedup counter. *)

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

(* --- arrivals ------------------------------------------------------------ *)

let test_arrivals () =
  let a = Serve.arrivals ~seed:9 ~rate:250.0 ~n:64 in
  let b = Serve.arrivals ~seed:9 ~rate:250.0 ~n:64 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = Serve.arrivals ~seed:10 ~rate:250.0 ~n:64 in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  Array.iteri
    (fun i t ->
      if t <= 0.0 || (i > 0 && t < a.(i - 1)) then
        Alcotest.failf "offsets must be positive and nondecreasing (at %d)" i)
    a;
  match Serve.arrivals ~seed:1 ~rate:0.0 ~n:4 with
  | _ -> Alcotest.fail "rate 0 must be refused"
  | exception Invalid_argument _ -> ()

(* --- store dedup ---------------------------------------------------------- *)

let test_dedup () =
  let cache = temp_cache () in
  let bin = Programs.fibonacci ~name:"serve-test-dedup" ~rounds:400 () in
  let run () =
    Serve.execute ~cache ~isa:base_isa ~mode:Chbp.Downgrade ~tiered:false ~fuel
      bin
  in
  let dedups () =
    Metrics.Snapshot.counter_value (Metrics.Snapshot.take ())
      "chimera_cache_dedup_total"
  in
  Metrics.enable ();
  let d0 = dedups () in
  let _, r1, _, warm1 = run () in
  let d1 = dedups () in
  Alcotest.(check bool) "first run is cold" false warm1;
  Alcotest.(check int) "fresh stores never dedup" d0 d1;
  let _, r2, _, warm2 = run () in
  let d2 = dedups () in
  Alcotest.(check bool) "second run is warm" true warm2;
  Alcotest.(check bool) "identical re-store deduped" true (d2 > d1);
  Alcotest.(check int) "dedup changed nothing about execution" r1 r2

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
      ( "arrivals",
        [ Alcotest.test_case "seeded schedule is deterministic" `Quick
            test_arrivals ] );
      ( "dedup",
        [ Alcotest.test_case "valid entries are not rewritten" `Quick
            test_dedup ] ) ]
