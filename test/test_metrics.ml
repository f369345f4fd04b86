(* Metrics subsystem:
   - the log-linear bucket layout is self-consistent and its quantile
     estimates are within one bucket width of the exact sample (property);
   - recording sharded over 4 domains merges to the same snapshot as the
     same work on 1 domain — counters exactly, histograms bucket-wise
     (mirroring test_obs's counter-merge test);
   - the engine's counters from real guests are the same whether the
     guests run on 1 domain or on 2;
   - disabled recording is a no-op;
   - registry identity: same name returns the same metric, kind clashes
     and negative counter increments are rejected;
   - snapshot deltas subtract pointwise;
   - both exposition formats carry the recorded values;
   - the health watchdog's default rules fire on the regressions they
     describe and stay quiet below their activity floors. *)

let c_work = Metrics.counter ~help:"test" "chimera_test_work_total"
let g_level = Metrics.gauge ~help:"test" "chimera_test_level"
let h_lat = Metrics.histogram ~help:"test" "chimera_test_lat_ns"

let with_metrics f =
  Metrics.enable ();
  Metrics.reset ();
  Fun.protect ~finally:Metrics.disable f

(* --- bucket layout ------------------------------------------------------------ *)

let test_bucket_layout () =
  (* every bucket covers [lo, hi) with lo < hi, and boundaries chain *)
  for i = 0 to Metrics.Buckets.count - 1 do
    if Metrics.Buckets.lo i >= Metrics.Buckets.hi i then
      Alcotest.failf "bucket %d: lo %d >= hi %d" i (Metrics.Buckets.lo i)
        (Metrics.Buckets.hi i);
    if i > 0 && Metrics.Buckets.lo i <> Metrics.Buckets.hi (i - 1) then
      Alcotest.failf "bucket %d does not chain: lo %d, prev hi %d" i
        (Metrics.Buckets.lo i)
        (Metrics.Buckets.hi (i - 1))
  done

let prop_index_in_own_bucket =
  QCheck.Test.make ~name:"metrics: index v lands v in [lo, hi)" ~count:2000
    QCheck.(
      make
        Gen.(
          oneof
            [ int_range 0 15; int_range 0 4096; int_range 0 1_000_000;
              int_range 0 (1 lsl 40) ]))
    (fun v ->
      let i = Metrics.Buckets.index v in
      i >= 0
      && i < Metrics.Buckets.count
      && Metrics.Buckets.lo i <= v
      && v < Metrics.Buckets.hi i)

(* --- quantile error bound ------------------------------------------------------ *)

(* The documented contract: [quantile h q] is the midpoint of the bucket
   holding the ceil(q*n)-th smallest sample, so its error against the exact
   order statistic is bounded by that bucket's width. *)
let prop_quantile_error_bounded =
  let sample_gen =
    QCheck.Gen.(
      list_size (int_range 1 400)
        (oneof
           [ int_range 0 15; int_range 0 2048; int_range 0 500_000;
             int_range 0 (1 lsl 28) ]))
  in
  QCheck.Test.make ~name:"metrics: quantile error <= bucket width" ~count:100
    (QCheck.make sample_gen) (fun samples ->
      with_metrics (fun () ->
          List.iter (Metrics.observe h_lat) samples;
          let snap = Metrics.Snapshot.take () in
          let h =
            match Metrics.Snapshot.histogram_value snap "chimera_test_lat_ns" with
            | Some h -> h
            | None -> QCheck.Test.fail_report "histogram missing from snapshot"
          in
          let sorted = List.sort compare samples in
          let n = List.length sorted in
          List.for_all
            (fun q ->
              let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
              let exact = List.nth sorted (rank - 1) in
              let est = Metrics.Snapshot.quantile h q in
              let b = Metrics.Buckets.index exact in
              let width = Metrics.Buckets.hi b - Metrics.Buckets.lo b in
              let err = Float.abs (est -. float_of_int exact) in
              if err > float_of_int width then
                QCheck.Test.fail_reportf
                  "q=%.3f over %d samples: estimate %.1f vs exact %d (err %.1f \
                   > bucket width %d)"
                  q n est exact err width
              else true)
            [ 0.1; 0.5; 0.9; 0.99; 0.999 ]))

(* --- -j 1 vs -j 4 merge --------------------------------------------------------- *)

(* The same work items recorded on 1 domain and sharded over 4 domains must
   merge to identical snapshots: counters are summed and histogram buckets
   added, both commutative. Mirrors test_obs's counter-merge test. *)
let work seed =
  let rng = Random.State.make [| seed |] in
  for _ = 1 to 200 do
    Metrics.add c_work (Random.State.int rng 50);
    Metrics.gauge_add g_level (Random.State.int rng 9 - 4);
    Metrics.observe h_lat (Random.State.int rng 1_000_000)
  done

let test_parallel_merge () =
  let seeds = List.init 8 (fun i -> 7000 + (137 * i)) in
  let snap_of run =
    Metrics.enable ();
    Metrics.reset ();
    run ();
    let s = Metrics.Snapshot.take () in
    Metrics.disable ();
    s
  in
  let seq = snap_of (fun () -> List.iter work seeds) in
  let par =
    snap_of (fun () ->
        let items = Array.of_list seeds in
        let next = Atomic.make 0 in
        let worker () =
          let rec go () =
            let i = Atomic.fetch_and_add next 1 in
            if i < Array.length items then begin
              work items.(i);
              go ()
            end
          in
          go ()
        in
        let doms = List.init 3 (fun _ -> Domain.spawn worker) in
        worker ();
        List.iter Domain.join doms)
  in
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " equal across -j")
        (Metrics.Snapshot.counter_value seq name)
        (Metrics.Snapshot.counter_value par name))
    [ "chimera_test_work_total" ];
  Alcotest.(check int) "gauge equal across -j"
    (Metrics.Snapshot.gauge_value seq "chimera_test_level")
    (Metrics.Snapshot.gauge_value par "chimera_test_level");
  let hist s =
    match Metrics.Snapshot.histogram_value s "chimera_test_lat_ns" with
    | Some h -> h
    | None -> Alcotest.fail "histogram missing"
  in
  let hs = hist seq and hp = hist par in
  Alcotest.(check int) "hist count" hs.Metrics.Snapshot.h_count
    hp.Metrics.Snapshot.h_count;
  Alcotest.(check int) "hist sum" hs.Metrics.Snapshot.h_sum
    hp.Metrics.Snapshot.h_sum;
  Alcotest.(check (list (triple int int int)))
    "hist buckets bucket-wise equal"
    (Metrics.Snapshot.buckets hs)
    (Metrics.Snapshot.buckets hp)

(* --- engine counters across domains ------------------------------------------------ *)

(* The engine's own counters, fed at [Machine.run]'s flush point, must be
   exact under -j N: a fixed set of guests run once sequentially and once
   split over 2 domains must produce the same totals, and
   chimera_retired_total must equal the guests' own retired counts. The
   TLB counters are left out on purpose: the permission epoch is
   process-global, so a [Memory.map] on one domain flushes the other
   domain's TLB and the hit/miss split depends on the interleaving (the
   bench's fig11 tlb_hit_rate reads 0.9994 or 0.9995 from run to run at
   -j 2, and is stable at -j 1). *)
let engine_counters =
  List.map
    (fun n -> "chimera_" ^ n ^ "_total")
    [ "retired"; "dispatches"; "chain_hits"; "side_exits"; "fused"; "ic_hits";
      "ic_misses"; "tier_promotions"; "recompiles"; "translations"; "ir_blocks";
      "ir_units"; "ir_folded"; "ir_dead"; "ir_pc_elided"; "ir_tlb_elided";
      "ir_cached" ]

let tiered = Engine.Tiered { record = false }

(* Each guest builds a fresh tiered machine with inline caches, and a
   runtime when it runs rewritten code: native Programs kernels, and
   CHBP-downgraded Specgen binaries under the Chimera runtime (trap and
   fault-recovery handlers, rewritten code's paired accesses). *)
let engine_guests () =
  let native bin () =
    let m = Machine.create ~engine:tiered ~mem:(Loader.load bin) ~isa:Ext.rv64gcv () in
    Loader.init_machine m bin;
    m
  in
  let rewritten name =
    let bin = Specgen.build { (Specgen.find name) with Specgen.sp_rounds = 24 } in
    fun () ->
      (* a fresh rewrite per run: lazy rewriting extends the context *)
      let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
      let rt = Chimera_rt.create ctx in
      (Machine.create ~engine:tiered ~mem:(Chimera_rt.load rt) ~isa:Ext.rv64gc (), Some rt)
  in
  List.map (fun bin () -> (native bin (), None))
    [ Programs.matmul `Ext ~n:10;
      Programs.branchy ~rounds:20_000 ();
      Programs.indirecty ~rounds:10_000 ();
      Programs.fibonacci ~rounds:300 () ]
  @ [ rewritten "omnetpp_r"; rewritten "imagick_r" ]

(* Run one guest in several [run] calls so the flush point is crossed more
   than once; returns what it retired. *)
let run_guest guest =
  let m, rt = guest () in
  let run1 () =
    match rt with
    | Some rt -> Chimera_rt.run rt ~fuel:200_000 m
    | None -> Machine.run ~fuel:200_000 m
  in
  let rec go k =
    match run1 () with Machine.Fuel_exhausted when k > 1 -> go (k - 1) | _ -> ()
  in
  go 20;
  Machine.retired m

let test_engine_counters () =
  let guests = engine_guests () in
  let measure run =
    let snap0 = Metrics.Snapshot.take () in
    let retired = run () in
    (retired, Metrics.Snapshot.delta ~cur:(Metrics.Snapshot.take ()) ~prev:snap0)
  in
  let sum_runs bins = List.fold_left (fun a b -> a + run_guest b) 0 bins in
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      let seq_retired, seq = measure (fun () -> sum_runs guests) in
      let par_retired, par =
        measure (fun () ->
            let half k = List.filteri (fun i _ -> i mod 2 = k) guests in
            let doms = List.init 2 (fun k -> Domain.spawn (fun () -> sum_runs (half k))) in
            List.fold_left (fun a d -> a + Domain.join d) 0 doms)
      in
      Alcotest.(check int) "guests retire the same" seq_retired par_retired;
      Alcotest.(check int) "chimera_retired_total = sum of Machine.retired"
        seq_retired (Metrics.Snapshot.counter_value seq "chimera_retired_total");
      List.iter
        (fun name ->
          let v = Metrics.Snapshot.counter_value seq name in
          if v = 0 then
            Alcotest.failf "%s never moved: the guests do not exercise it" name;
          Alcotest.(check int)
            (name ^ " equal across domains")
            v
            (Metrics.Snapshot.counter_value par name))
        engine_counters)

(* --- off is a no-op ------------------------------------------------------------- *)

let test_disabled_noop () =
  with_metrics (fun () ->
      Metrics.incr c_work;
      Metrics.observe h_lat 42);
  (* disabled now: emission-site discipline is [if !Metrics.enabled then ...],
     but the recording functions themselves must also be safe to call *)
  Alcotest.(check bool) "disabled" false !Metrics.enabled;
  let before = Metrics.Snapshot.take () in
  let v = Metrics.Snapshot.counter_value before "chimera_test_work_total" in
  if !Metrics.enabled then Metrics.incr c_work;
  let after = Metrics.Snapshot.take () in
  Alcotest.(check int) "guarded increment recorded nothing" v
    (Metrics.Snapshot.counter_value after "chimera_test_work_total")

(* --- registry ------------------------------------------------------------------- *)

let test_registry () =
  let again = Metrics.counter "chimera_test_work_total" in
  with_metrics (fun () ->
      Metrics.incr c_work;
      Metrics.incr again;
      let s = Metrics.Snapshot.take () in
      Alcotest.(check int) "same name, same counter" 2
        (Metrics.Snapshot.counter_value s "chimera_test_work_total"));
  (match Metrics.gauge "chimera_test_work_total" with
  | _ -> Alcotest.fail "kind clash must be rejected"
  | exception Invalid_argument _ -> ());
  (match Metrics.add c_work (-1) with
  | () -> Alcotest.fail "negative counter increment must be rejected"
  | exception Invalid_argument _ -> ());
  with_metrics (fun () ->
      (* negative samples clamp to the first bucket instead of raising:
         emission sites must never be able to crash the host *)
      Metrics.observe h_lat (-5);
      let s = Metrics.Snapshot.take () in
      match Metrics.Snapshot.histogram_value s "chimera_test_lat_ns" with
      | Some h -> (
          Alcotest.(check int) "clamped sample recorded" 1 h.Metrics.Snapshot.h_count;
          match Metrics.Snapshot.buckets h with
          | [ (lo, _, 1) ] -> Alcotest.(check int) "into bucket 0" 0 lo
          | bs -> Alcotest.failf "unexpected buckets (%d)" (List.length bs))
      | None -> Alcotest.fail "histogram missing")

(* --- snapshot delta -------------------------------------------------------------- *)

let test_delta () =
  with_metrics (fun () ->
      Metrics.add c_work 5;
      Metrics.observe h_lat 100;
      let prev = Metrics.Snapshot.take () in
      Metrics.add c_work 3;
      Metrics.observe h_lat 100;
      Metrics.observe h_lat 5000;
      let cur = Metrics.Snapshot.take () in
      let d = Metrics.Snapshot.delta ~cur ~prev in
      Alcotest.(check int) "counter delta" 3
        (Metrics.Snapshot.counter_value d "chimera_test_work_total");
      match Metrics.Snapshot.histogram_value d "chimera_test_lat_ns" with
      | Some h ->
          Alcotest.(check int) "hist count delta" 2 h.Metrics.Snapshot.h_count;
          Alcotest.(check int) "hist sum delta" 5100 h.Metrics.Snapshot.h_sum
      | None -> Alcotest.fail "histogram missing from delta")

(* --- exposition ------------------------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_exposition () =
  with_metrics (fun () ->
      Metrics.add c_work 7;
      Metrics.gauge_add g_level 3;
      Metrics.observe h_lat 100;
      Metrics.observe h_lat 200_000;
      let s = Metrics.Snapshot.take () in
      let prom = Metrics.Snapshot.to_prometheus s in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("prometheus has " ^ needle) true
            (contains prom needle))
        [ "# TYPE chimera_test_work_total counter";
          "chimera_test_work_total 7";
          "# TYPE chimera_test_level gauge";
          "chimera_test_level 3";
          "# TYPE chimera_test_lat_ns histogram";
          "chimera_test_lat_ns_count 2";
          "chimera_test_lat_ns_sum 200100";
          "le=\"+Inf\"" ];
      Alcotest.(check bool) "no health block without verdicts" false
        (contains prom "chimera_healthy");
      let j =
        Metrics.Snapshot.to_json
          ~health:
            [ { Metrics.v_rule = "r1"; v_ok = true; v_value = 1.0; v_detail = "ok" } ]
          s
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("json has " ^ needle) true (contains j needle))
        [ "\"counters\""; "\"chimera_test_work_total\": 7"; "\"gauges\"";
          "\"histograms\""; "\"p50\""; "\"p999\""; "\"health\""; "\"r1\"" ])

(* --- watchdog -------------------------------------------------------------------- *)

(* The default rules reference the runtime's canonical metric names; the
   registry hands back the same metrics the machine layers feed. *)
let m_retired = Metrics.counter "chimera_retired_total"
let m_dispatches = Metrics.counter "chimera_dispatches_total"
let m_tlb_hits = Metrics.counter "chimera_tlb_hits_total"
let m_tlb_misses = Metrics.counter "chimera_tlb_misses_total"
let m_rejects = Metrics.counter "chimera_cache_rejects_total"

let verdict_of name verdicts =
  match List.find_opt (fun v -> v.Metrics.v_rule = name) verdicts with
  | Some v -> v
  | None -> Alcotest.failf "rule %s missing from verdicts" name

let eval () =
  Metrics.Watchdog.evaluate ~prev:Metrics.Snapshot.empty
    ~cur:(Metrics.Snapshot.take ()) ()

let test_watchdog_healthy () =
  with_metrics (fun () ->
      Metrics.add m_retired 2_000_000;
      Metrics.add m_dispatches 40_000;
      Metrics.add m_tlb_hits 900_000;
      Metrics.add m_tlb_misses 100_000;
      let vs = eval () in
      Alcotest.(check bool) "all rules pass" true (Metrics.Watchdog.healthy vs);
      Alcotest.(check int) "one verdict per default rule"
        (List.length Metrics.Watchdog.default_rules)
        (List.length vs))

let test_watchdog_degraded () =
  with_metrics (fun () ->
      (* retired advanced with zero dispatches: the block engine stalled *)
      Metrics.add m_retired 2_000_000;
      (* TLB hit rate collapsed under a meaningful access count *)
      Metrics.add m_tlb_hits 10_000;
      Metrics.add m_tlb_misses 190_000;
      (* a burst of cache rejects *)
      Metrics.add m_rejects 1_000;
      let vs = eval () in
      Alcotest.(check bool) "degraded overall" false (Metrics.Watchdog.healthy vs);
      Alcotest.(check bool) "dispatch_stall fires" false
        (verdict_of "dispatch_stall" vs).Metrics.v_ok;
      Alcotest.(check bool) "tlb_collapse fires" false
        (verdict_of "tlb_collapse" vs).Metrics.v_ok;
      Alcotest.(check bool) "cache_reject_burst fires" false
        (verdict_of "cache_reject_burst" vs).Metrics.v_ok;
      List.iter
        (fun v ->
          if not v.Metrics.v_ok then
            Alcotest.(check bool) ("detail nonempty for " ^ v.Metrics.v_rule) true
              (String.length v.Metrics.v_detail > 0))
        vs)

let test_watchdog_floors () =
  with_metrics (fun () ->
      (* the same shapes below their activity floors must stay quiet:
         an idle process is healthy, not degraded *)
      Metrics.add m_retired 500_000;  (* < min_active *)
      Metrics.add m_tlb_hits 10;
      Metrics.add m_tlb_misses 190;  (* den < min_den *)
      let vs = eval () in
      Alcotest.(check bool) "idle process is healthy" true
        (Metrics.Watchdog.healthy vs));
  (* health events reach the Obs stream only when tracing is on *)
  let seen = ref [] in
  Obs.enable ~sink:(fun events len ->
      for k = 0 to len - 1 do
        match events.(k) with
        | Obs.Health_ok { rule } -> seen := ("ok:" ^ rule) :: !seen
        | Obs.Health_degraded { rule; _ } -> seen := ("bad:" ^ rule) :: !seen
        | _ -> ()
      done);
  Fun.protect ~finally:Obs.disable (fun () ->
      Metrics.enable ();
      Metrics.reset ();
      Fun.protect ~finally:Metrics.disable (fun () ->
          Metrics.add m_retired 2_000_000;
          ignore (eval ()));
      Obs.disable ());
  Alcotest.(check bool) "degraded rule emitted a typed event" true
    (List.mem "bad:dispatch_stall" !seen);
  Alcotest.(check bool) "passing rules emitted health_ok" true
    (List.exists (fun s -> String.length s > 3 && String.sub s 0 3 = "ok:") !seen)

let () =
  Alcotest.run "chimera_metrics"
    [ ("buckets",
       Alcotest.test_case "layout chains" `Quick test_bucket_layout
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_index_in_own_bucket; prop_quantile_error_bounded ]);
      ("merge",
       [ Alcotest.test_case "-j 1 vs -j 4 snapshots identical" `Quick
           test_parallel_merge;
         Alcotest.test_case "engine counters exact over 2 domains" `Quick
           test_engine_counters ]);
      ("registry",
       [ Alcotest.test_case "disabled recording is a no-op" `Quick
           test_disabled_noop;
         Alcotest.test_case "names, kinds, negative amounts" `Quick test_registry;
         Alcotest.test_case "snapshot delta" `Quick test_delta ]);
      ("exposition",
       [ Alcotest.test_case "prometheus + json carry the values" `Quick
           test_exposition ]);
      ("watchdog",
       [ Alcotest.test_case "healthy run passes every rule" `Quick
           test_watchdog_healthy;
         Alcotest.test_case "regressions fire their rules" `Quick
           test_watchdog_degraded;
         Alcotest.test_case "activity floors + obs events" `Quick
           test_watchdog_floors ]) ]
