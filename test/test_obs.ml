(* Observability layer:
   - JSONL encoding round-trips through the strict parser (property);
   - tracing on vs off is invisible: bit-identical machine state, stop
     condition, retire counts and counters on the property-test corpus;
   - a golden JSONL trace of one small workload pins the schema;
   - per-site counter merge is deterministic and order-independent
     (equal -j 1 vs -j 4 aggregates);
   - the trace aggregator reproduces the runtime counters exactly. *)

let base_isa = Ext.rv64gc

(* --- helpers ---------------------------------------------------------------- *)

let buffer_sink buf events len =
  for k = 0 to len - 1 do
    Buffer.add_string buf (Obs.Json.to_line events.(k));
    Buffer.add_char buf '\n'
  done

let with_trace f =
  let buf = Buffer.create 4096 in
  Obs.enable ~sink:(buffer_sink buf);
  Fun.protect ~finally:Obs.disable (fun () -> ignore (f ()));
  Buffer.contents buf

let events_of_string s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Obs.Json.of_line l with
         | Some ev -> ev
         | None -> Alcotest.failf "unparseable trace line: %s" l)

let fuzz_profile seed =
  let rng = Random.State.make [| seed |] in
  { Specgen.sp_name = Printf.sprintf "fuzz%d" seed;
    sp_code_kb = 8 + Random.State.int rng 10;
    sp_ext_pct = 0.005 +. Random.State.float rng 0.04;
    sp_ind_weight = 1 + Random.State.int rng 6;
    sp_vec_heat = 1 + Random.State.int rng 4;
    sp_pressure = Random.State.float rng 0.8;
    sp_hidden = Random.State.float rng 0.1;
    sp_compressed = Random.State.bool rng;
    sp_rounds = 40 + Random.State.int rng 60;
    sp_plain = 2 + Random.State.int rng 8;
    sp_victim_period = 1 lsl Random.State.int rng 5;
    sp_seed = seed }

(* --- JSON round-trip property ------------------------------------------------ *)

let event_gen =
  QCheck.Gen.(
    let addr = int_range 0 0x7FFF_FFFF in
    let name = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
    let cause = oneofl [ "sigill"; "sigsegv"; "misaligned" ] in
    oneof
      [ return (Obs.Meta { version = Obs.schema_version });
        map (fun name -> Obs.Phase_begin { name }) name;
        map (fun name -> Obs.Phase_end { name }) name;
        map2 (fun entry body -> Obs.Tb_compile { entry; body }) addr (int_range 0 256);
        map2 (fun entry body -> Obs.Tb_hit { entry; body }) addr (int_range 0 256);
        map2 (fun a len -> Obs.Tb_invalidate { addr = a; len }) addr (int_range 1 4096);
        (let* entry = addr and* body = int_range 0 256 in
         let* hits = int_range 0 1_000_000 and* retired = int_range 0 10_000_000 in
         let* loads = int_range 0 100_000 and* stores = int_range 0 100_000 in
         let* branches = int_range 0 100_000 and* alu = int_range 0 100_000 in
         let* vector = int_range 0 100_000 and* compressed = int_range 0 100_000 in
         let* penalty = int_range 0 100_000 and* tlb = int_range 0 10_000 in
         let* icache = int_range 0 10_000 and* faults = int_range 0 1_000 in
         let* recovered = int_range 0 1_000 and* traps = int_range 0 1_000 in
         return
           (Obs.Tb_profile
              { entry; body; hits; retired; loads; stores; branches; alu; vector;
                compressed; penalty; tlb; icache; faults; recovered; traps }));
        map2 (fun src dst -> Obs.Tb_chain { src; dst }) addr addr;
        (let* entry = addr and* insts = int_range 0 256 in
         let* pages = int_range 1 8 and* jumps = int_range 0 32 in
         let* exits = int_range 0 32 and* fused = int_range 0 128 in
         return (Obs.Tb_superblock { entry; insts; pages; jumps; exits; fused }));
        map2 (fun entry target -> Obs.Tb_side_exit { entry; target }) addr addr;
        map2 (fun a len -> Obs.Tlb_flush { addr = a; len }) addr (int_range 1 4096);
        map2 (fun a misses -> Obs.Icache_burst { addr = a; misses }) addr (int_range 8 512);
        map2 (fun pc cause -> Obs.Fault_raised { pc; cause }) addr cause;
        map3
          (fun site redirect cause -> Obs.Fault_recovered { site; redirect; cause })
          addr addr cause;
        map2 (fun site target -> Obs.Trap_taken { site; target }) addr addr;
        map2 (fun site target -> Obs.Check_taken { site; target }) addr addr;
        map2 (fun root patches -> Obs.Lazy_discovered { root; patches }) addr (int_range 0 64);
        map2 (fun pc gp_restored -> Obs.Signal_delivered { pc; gp_restored }) addr bool;
        map3
          (fun core cls task -> Obs.Sched_steal { core; cls; task })
          (int_range 0 63)
          (oneofl [ "base"; "extension" ])
          (int_range 0 10_000);
        map2 (fun task cycles -> Obs.Sched_migrate { task; cycles }) (int_range 0 10_000) addr;
        map2
          (fun site style -> Obs.Rw_site { site; style })
          addr
          (oneofl [ "smile"; "trap"; "greg" ]);
        map2
          (fun site kind -> Obs.Rw_exit { site; kind })
          addr
          (oneofl [ "liveness"; "shift"; "terminator"; "trap" ]);
        map2 (fun pc target -> Obs.Smile_write { pc; target }) addr addr;
        map3
          (fun key redirect table -> Obs.Table_add { key; redirect; table })
          addr addr
          (oneofl [ "fault"; "trap" ]);
        map
          (fun rule -> Obs.Health_ok { rule })
          (oneofl [ "dispatch_stall"; "tlb_collapse" ]);
        map2
          (fun rule reason -> Obs.Health_degraded { rule; reason })
          (oneofl [ "chain_collapse"; "cache_reject_burst" ])
          name;
        map2
          (fun tenant id -> Obs.Serve_admit { tenant; id })
          name (int_range 0 10_000);
        map3
          (fun tenant id retired -> Obs.Serve_done { tenant; id; retired })
          name (int_range 0 10_000) addr;
        map3
          (fun tenant id reason -> Obs.Serve_reject { tenant; id; reason })
          name (int_range 0 10_000)
          (oneofl [ "saturated"; "shutdown" ]) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"obs: JSONL encoding round-trips" ~count:500
    (QCheck.make event_gen) (fun ev ->
      match Obs.Json.of_line (Obs.Json.to_line ev) with
      | Some ev' -> ev = ev'
      | None -> QCheck.Test.fail_reportf "unparseable: %s" (Obs.Json.to_line ev))

let prop_json_rejects_malformed =
  QCheck.Test.make ~name:"obs: parser rejects corrupted lines" ~count:200
    QCheck.(make Gen.(pair event_gen (int_range 0 1000)))
    (fun (ev, salt) ->
      let line = Obs.Json.to_line ev in
      (* drop one structural character: never a valid line of this schema *)
      let pos = salt mod String.length line in
      let corrupted =
        String.sub line 0 pos ^ String.sub line (pos + 1) (String.length line - pos - 1)
      in
      match Obs.Json.of_line corrupted with
      | None -> true
      | Some ev' ->
          (* deleting a digit from an int field can still parse; the value
             must then differ, never silently equal *)
          ev' <> ev)

(* --- schema version rejection ------------------------------------------------ *)

(* Meta lines from another schema version must not parse: silently accepting
   a stale trace would mis-decode every versioned field after it. read_file
   turns the rejection into an actionable error naming both versions. *)
let test_meta_version_rejected () =
  let stale v = Printf.sprintf "{\"ev\":\"meta\",\"version\":%d}" v in
  Alcotest.(check bool)
    "current version parses" true
    (Obs.Json.of_line (stale Obs.schema_version) <> None);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "version %d rejected" v)
        true
        (Obs.Json.of_line (stale v) = None))
    [ 0; 1; Obs.schema_version + 1; 999 ];
  let file = Filename.temp_file "stale_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc (stale 1 ^ "\n");
      close_out oc;
      match Obs.Json.read_file file with
      | _ -> Alcotest.fail "stale trace must not load"
      | exception Failure msg ->
          Alcotest.(check bool)
            "error names both versions" true
            (let has needle =
               let n = String.length needle and l = String.length msg in
               let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
               go 0
             in
             has "schema version 1"
             && has (Printf.sprintf "version %d" Obs.schema_version)))

(* --- ring/sink behavior ------------------------------------------------------ *)

let test_ring_flush () =
  let n = ref 0 in
  Obs.enable ~sink:(fun _ len -> n := !n + len);
  let total = 10_000 in
  for i = 1 to total do
    Obs.emit (Obs.Tb_hit { entry = i; body = 1 })
  done;
  Obs.disable ();
  (* +1: the Meta header emitted by enable *)
  Alcotest.(check int) "all events reach the sink" (total + 1) !n;
  Obs.emit (Obs.Tb_hit { entry = 0; body = 1 });
  Alcotest.(check int) "emit after disable is a no-op" (total + 1) !n;
  Alcotest.(check int) "channel sink never drops" 0 (Obs.events_dropped ())

(* The bounded in-memory sink keeps the most recent events and counts what
   it overwrote — the "dropped" total surfaced in bench --json and by the
   chimera metrics subcommand. *)
let test_memory_sink_drops () =
  let cap = 64 in
  Obs.enable_memory ~capacity:cap ();
  let total = 200 in
  Fun.protect ~finally:Obs.disable (fun () ->
      for i = 1 to total do
        Obs.emit (Obs.Tb_hit { entry = i; body = 1 })
      done;
      let kept = Obs.recent () in
      Alcotest.(check int) "retains exactly capacity" cap (List.length kept);
      (* +1: the Meta header emitted by enable was the first overwrite *)
      Alcotest.(check int)
        "dropped = emitted - capacity" (total + 1 - cap)
        (Obs.events_dropped ());
      (* oldest-first: the window is the last [cap] emissions, in order *)
      let expect = List.init cap (fun k -> total - cap + 1 + k) in
      let got =
        List.map
          (function
            | Obs.Tb_hit { entry; _ } -> entry
            | _ -> Alcotest.fail "unexpected event kind in window")
          kept
      in
      Alcotest.(check (list int)) "window is the tail, oldest-first" expect got);
  Alcotest.(check int) "disable clears nothing retroactively" (total + 1 - cap)
    (Obs.events_dropped ())

(* --- tracing on vs off is invisible ------------------------------------------ *)

type snap = {
  sn_stop : string;
  sn_regs : int64 list;
  sn_pc : int;
  sn_retired : int;
  sn_cycles : int;
  sn_counters : string;
}

let run_chimera seed =
  let bin = Specgen.build (fuzz_profile seed) in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  let stop = Chimera_rt.run rt ~fuel:50_000_000 m in
  let c = Chimera_rt.counters rt in
  { sn_stop =
      (match stop with
      | Machine.Exited c -> Printf.sprintf "exit %d" c
      | Machine.Faulted f -> "fault " ^ Fault.to_string f
      | Machine.Fuel_exhausted -> "fuel");
    sn_regs = List.init 32 (fun i -> Machine.get_reg m (Reg.of_int i));
    sn_pc = Machine.pc m;
    sn_retired = Machine.retired m;
    sn_cycles = Machine.cycles m;
    sn_counters =
      Format.asprintf "%a|%a" Counters.pp c
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ";")
           (fun fmt (pc, s) ->
             Format.fprintf fmt "%x:%d/%d/%d/%d" pc s.Counters.s_faults
               s.Counters.s_traps s.Counters.s_checks s.Counters.s_lazy))
        (Counters.per_site c) }

let prop_tracing_invisible =
  QCheck.Test.make
    ~name:"obs: tracing on vs off is bit-identical (state, retires, counters)"
    ~count:6
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let off = run_chimera seed in
      let on = ref None in
      let trace = with_trace (fun () -> on := Some (run_chimera seed)) in
      let on = Option.get !on in
      if off <> on then
        QCheck.Test.fail_reportf "seed %d: traced run differs (off %s / on %s)" seed
          off.sn_counters on.sn_counters
      else if String.length trace = 0 then
        QCheck.Test.fail_reportf "seed %d: empty trace" seed
      else true)

(* --- trace aggregation reproduces the counters -------------------------------- *)

let prop_agg_matches_counters =
  QCheck.Test.make
    ~name:"obs: per-site aggregation of the trace equals the runtime counters"
    ~count:6
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let bin = Specgen.build (fuzz_profile seed) in
      let counters = ref None in
      let trace =
        with_trace (fun () ->
            let ctx =
              Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin
            in
            let rt = Chimera_rt.create ctx in
            let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
            ignore (Chimera_rt.run rt ~fuel:50_000_000 m);
            counters := Some (Chimera_rt.counters rt))
      in
      let c = Option.get !counters in
      let agg = Obs.Agg.create () in
      List.iter (Obs.Agg.observe agg) (events_of_string trace);
      let t = Obs.Agg.totals agg in
      let expected_sites =
        List.filter_map
          (fun (pc, s) ->
            let n = Counters.site_events s in
            if n > 0 then Some (pc, n) else None)
          (Counters.per_site c)
      in
      if
        t.Obs.Agg.faults_recovered <> c.Counters.faults_recovered
        || t.Obs.Agg.traps <> c.Counters.traps
        || t.Obs.Agg.checks <> c.Counters.checks
        || t.Obs.Agg.lazies <> c.Counters.lazy_rewrites
      then
        QCheck.Test.fail_reportf
          "seed %d: totals differ (trace %d/%d/%d/%d, counters %d/%d/%d/%d)" seed
          t.Obs.Agg.faults_recovered t.Obs.Agg.traps t.Obs.Agg.checks
          t.Obs.Agg.lazies c.Counters.faults_recovered c.Counters.traps
          c.Counters.checks c.Counters.lazy_rewrites
      else if Obs.Agg.per_site agg <> expected_sites then
        QCheck.Test.fail_reportf "seed %d: per-site breakdown differs" seed
      else true)

(* --- golden trace ------------------------------------------------------------- *)

(* The schema is a documented interface (OBSERVABILITY.md): any change to
   event names, field names or emission order of this fixed workload must
   show up as a diff of test/golden/trace_matmul.jsonl. *)
let golden_trace () =
  with_trace (fun () ->
      let bin = Programs.matmul ~name:"golden-mm" `Ext ~n:4 in
      let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
      let rt = Chimera_rt.create ctx in
      let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
      ignore (Chimera_rt.run rt ~fuel:10_000_000 m))

let test_golden () =
  let got = golden_trace () in
  let want =
    let ic = open_in "golden/trace_matmul.jsonl" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if got <> want then begin
    (* keep the mismatch inspectable *)
    let oc = open_out "trace_matmul.actual.jsonl" in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "golden trace differs (see trace_matmul.actual.jsonl, %d vs %d bytes); \
       if the schema change is intentional, regenerate golden/trace_matmul.jsonl \
       and update OBSERVABILITY.md"
      (String.length got) (String.length want)
  end

let test_golden_parses () =
  let evs = events_of_string (golden_trace ()) in
  (match evs with
  | Obs.Meta { version } :: _ ->
      Alcotest.(check int) "schema version" Obs.schema_version version
  | _ -> Alcotest.fail "golden trace must start with a meta event");
  Alcotest.(check bool) "has events" true (List.length evs > 10)

(* --- per-site merge: -j 1 vs -j 4 --------------------------------------------- *)

(* Worker counters merged in any sharding/order must produce identical
   aggregates — per-key addition is commutative and associative. The
   parallel arm really runs on 4 domains, like the bench driver. *)
let cell_counters seed =
  let bin = Specgen.build (fuzz_profile seed) in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  ignore (Chimera_rt.run rt ~fuel:50_000_000 m);
  Chimera_rt.counters rt

let canon c =
  ( c.Counters.faults_recovered,
    c.Counters.traps,
    c.Counters.checks,
    c.Counters.lazy_rewrites,
    List.map
      (fun (pc, s) ->
        (pc, s.Counters.s_faults, s.Counters.s_traps, s.Counters.s_checks,
         s.Counters.s_lazy))
      (Counters.per_site c) )

let test_parallel_merge () =
  let seeds = List.init 8 (fun i -> 7000 + (137 * i)) in
  (* -j 1: sequential, in order *)
  let seq = Counters.create () in
  List.iter (fun s -> Counters.add seq (cell_counters s)) seeds;
  (* -j 4: 4 domains pull cells off a shared index; each accumulates
     locally, the partials merge in reverse domain order *)
  let items = Array.of_list seeds in
  let next = Atomic.make 0 in
  let worker () =
    let acc = Counters.create () in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length items then begin
        Counters.add acc (cell_counters items.(i));
        go ()
      end
    in
    go ();
    acc
  in
  let doms = List.init 3 (fun _ -> Domain.spawn worker) in
  let mine = worker () in
  let partials = mine :: List.map Domain.join doms in
  let par = Counters.create () in
  List.iter (Counters.add par) (List.rev partials);
  Alcotest.(check bool) "-j 1 and -j 4 aggregates identical" true
    (canon seq = canon par);
  Alcotest.(check bool) "per-site attribution survives the merge" true
    (Counters.per_site par <> [])

let () =
  Alcotest.run "chimera_obs"
    [ ("json",
       List.map QCheck_alcotest.to_alcotest
         [ prop_json_roundtrip; prop_json_rejects_malformed ]);
      ("schema",
       [ Alcotest.test_case "stale meta versions rejected" `Quick
           test_meta_version_rejected ]);
      ("ring",
       [ Alcotest.test_case "flush + disable" `Quick test_ring_flush;
         Alcotest.test_case "memory sink bounds + drop count" `Quick
           test_memory_sink_drops ]);
      ("differential",
       List.map QCheck_alcotest.to_alcotest
         [ prop_tracing_invisible; prop_agg_matches_counters ]);
      ("golden",
       [ Alcotest.test_case "byte-identical to committed trace" `Quick test_golden;
         Alcotest.test_case "parses and starts with meta" `Quick test_golden_parses ]);
      ("merge",
       [ Alcotest.test_case "-j 1 vs -j 4 per-site aggregates" `Quick
           test_parallel_merge ]) ]
