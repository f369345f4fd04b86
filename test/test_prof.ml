(* Guest-level profiler:

   - class_code unit coverage (priority, compressed/call/ret bits);
   - engine equivalence: the profiler's totals (retired and the per-class
     sums) are bit-identical between the single-step and translation-block
     engines, on the differential-fuzzing corpus (which exercises lazy
     rewriting -> invalidate_code and chain severing) and across a warm-TLB
     permission downgrade with a mid-block fault;
   - exactness: the profiler's retired total equals the machine's own
     retirement counter;
   - events round-trip: to_events -> snaps_of_events preserves snapshots,
     and the offline report rendered from events is byte-identical to the
     live one;
   - the regression gate passes against an identical baseline and fails on
     a doctored one, with per-metric reasons, and every committed
     BENCH_PR*.json loads and passes against itself. *)

let base_isa = Ext.rv64gc
let ext_isa = Ext.rv64gcv

(* --- instruction classes ------------------------------------------------------ *)

let test_class_code () =
  let c = Profile.class_code in
  let cls x = x land 7 in
  Alcotest.(check int) "add is alu" Profile.cls_alu
    (cls (c (Inst.Op (Inst.Add, Reg.t0, Reg.t1, Reg.t2))));
  Alcotest.(check int) "ld is load" Profile.cls_load
    (cls (c (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t0; rs1 = Reg.t1; imm = 0 })));
  Alcotest.(check int) "sd is store" Profile.cls_store
    (cls (c (Inst.Store { width = Inst.D; rs2 = Reg.t0; rs1 = Reg.t1; imm = 0 })));
  Alcotest.(check int) "bne is branch" Profile.cls_branch
    (cls (c (Inst.Branch (Inst.Bne, Reg.t0, Reg.t1, 8))));
  Alcotest.(check int) "jal is branch class" Profile.cls_branch
    (cls (c (Inst.Jal (Reg.ra, 8))));
  Alcotest.(check bool) "jal ra is a call" true (Profile.is_call (c (Inst.Jal (Reg.ra, 8))));
  Alcotest.(check bool) "jal x0 is not a call" false
    (Profile.is_call (c (Inst.Jal (Reg.x0, 8))));
  Alcotest.(check bool) "jalr x0, ra is a ret" true
    (Profile.is_ret (c (Inst.Jalr (Reg.x0, Reg.ra, 0))));
  Alcotest.(check bool) "negative class codes are never calls" false
    (Profile.is_call (-1))

(* --- engine equivalence on the fuzz corpus ------------------------------------ *)

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

(* The totals both engines must agree on exactly. Per-block rows are not
   compared: the step engine keys rows by dynamically detected leaders,
   which legitimately differ from static block entries around mid-block
   re-entry. TLB/icache attribution is engine-specific by design (the block
   engine fetches each instruction once, at compile time). *)
type totals = {
  t_retired : int;
  t_loads : int;
  t_stores : int;
  t_branches : int;
  t_alu : int;
  t_vector : int;
  t_compressed : int;
  t_faults : int;
  t_recovered : int;
  t_traps : int;
}

let totals_of snaps =
  let sum f = List.fold_left (fun a s -> a + f s) 0 snaps in
  { t_retired = sum (fun s -> s.Profile.s_retired);
    t_loads = sum (fun s -> s.Profile.s_loads);
    t_stores = sum (fun s -> s.Profile.s_stores);
    t_branches = sum (fun s -> s.Profile.s_branches);
    t_alu = sum (fun s -> s.Profile.s_alu);
    t_vector = sum (fun s -> s.Profile.s_vector);
    t_compressed = sum (fun s -> s.Profile.s_compressed);
    t_faults = sum (fun s -> s.Profile.s_faults);
    t_recovered = sum (fun s -> s.Profile.s_recovered);
    t_traps = sum (fun s -> s.Profile.s_traps) }

let pp_totals t =
  Printf.sprintf "ret=%d l=%d s=%d b=%d a=%d v=%d c=%d flt=%d rec=%d trap=%d"
    t.t_retired t.t_loads t.t_stores t.t_branches t.t_alu t.t_vector
    t.t_compressed t.t_faults t.t_recovered t.t_traps

(* Run the CHBP-downgraded binary under the runtime with a profiler attached:
   lazy rewriting patches code mid-run (invalidate_code severs cached blocks
   and chain links under the profiler's feet). *)
let profile_chimera engine seed =
  let bin = Specgen.build (fuzz_profile seed) in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  let p = Profile.create () in
  let m = Machine.create ~engine ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  Machine.set_profile m (Some p);
  ignore (Chimera_rt.run rt ~fuel:50_000_000 m);
  (Machine.retired m, Profile.snapshot p)

let prop_engine_equivalence =
  QCheck.Test.make
    ~name:"profiler: totals bit-identical across engines (incl. lazy rewriting)"
    ~count:8
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let sret, ssnaps = profile_chimera Engine.Step seed in
      let bret, bsnaps = profile_chimera Engine.default seed in
      let st = totals_of ssnaps and bt = totals_of bsnaps in
      if st.t_retired <> sret then
        QCheck.Test.fail_reportf "seed %d: step profiler %d <> machine %d" seed
          st.t_retired sret
      else if bt.t_retired <> bret then
        QCheck.Test.fail_reportf "seed %d: block profiler %d <> machine %d" seed
          bt.t_retired bret
      else if st <> bt then
        QCheck.Test.fail_reportf "seed %d: step { %s } <> block { %s }" seed
          (pp_totals st) (pp_totals bt)
      else sret = bret)

(* --- warm-TLB permission downgrade -------------------------------------------- *)

(* A store loop warms the data TLB and the block cache; mid-run the page is
   downgraded to read-only, so the next store faults in the middle of an
   already-hot block (a partial dispatch). Both engines must attribute the
   same per-class counts and exactly one fault. An invalidate_code over the
   loop in the pause also forces recompilation and severs chain links. *)
let downgrade_program () =
  let a = Asm.create ~name:"tlbdown" () in
  Asm.func a "_start";
  Asm.la a Reg.a0 "buf";
  Asm.li a Reg.a1 4096;
  Asm.label a "L";
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.a1; rs1 = Reg.a0; imm = 0 });
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t0; rs1 = Reg.a0; imm = 0 });
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
  Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "L";
  Asm.li a Reg.a0 0;
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.dlabel a "buf";
  Asm.dword64 a 0L;
  Asm.assemble a

let string_of_stop = function
  | Machine.Exited c -> Printf.sprintf "exit %d" c
  | Machine.Faulted f -> "fault " ^ Fault.to_string f
  | Machine.Fuel_exhausted -> "fuel"

let profile_downgrade engine =
  let bin = downgrade_program () in
  let mem = Loader.load bin in
  let m = Machine.create ~engine ~mem ~isa:base_isa () in
  let p = Profile.create () in
  Machine.set_profile m (Some p);
  Loader.init_machine m bin;
  (* warm up: a few hundred loop iterations, stopped mid-stream by fuel *)
  (match Machine.run ~fuel:1000 m with
  | Machine.Fuel_exhausted -> ()
  | s -> Alcotest.failf "warm-up ended early (%s)" (string_of_stop s));
  (* sever any cached blocks/chains over the loop, then pull write permission
     from the warm data page *)
  Machine.invalidate_code m ~addr:0x10000 ~len:4096;
  let buf_page =
    (* the store target: find it from a0, which still points at buf *)
    Machine.get_reg m Reg.a0 |> Int64.to_int |> fun a -> a land lnot (Memory.page_size - 1)
  in
  Memory.set_perm mem ~addr:buf_page ~len:Memory.page_size Memory.perm_r;
  (match Machine.run ~fuel:1000 m with
  | Machine.Faulted _ -> ()
  | s -> Alcotest.failf "expected a fault (%s)" (string_of_stop s));
  (Machine.retired m, Profile.snapshot p)

let test_warm_tlb_downgrade () =
  let sret, ssnaps = profile_downgrade Engine.Step in
  let bret, bsnaps = profile_downgrade Engine.default in
  let st = totals_of ssnaps and bt = totals_of bsnaps in
  Alcotest.(check int) "machines retired equally" sret bret;
  Alcotest.(check int) "step profiler exact" sret st.t_retired;
  Alcotest.(check int) "block profiler exact" bret bt.t_retired;
  Alcotest.(check bool)
    (Printf.sprintf "totals identical (step %s / block %s)" (pp_totals st)
       (pp_totals bt))
    true (st = bt);
  Alcotest.(check int) "exactly one fault attributed" 1 bt.t_faults;
  Alcotest.(check bool) "stores were classified" true (bt.t_stores > 0)

(* --- events round-trip and offline report ------------------------------------- *)

let matmul_profile () =
  let bin = Programs.matmul ~name:"prof-mm" `Ext ~n:8 in
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:ext_isa () in
  let p = Profile.create () in
  Machine.set_profile m (Some p);
  Loader.init_machine m bin;
  (match Machine.run ~fuel:10_000_000 m with
  | Machine.Exited _ -> ()
  | s -> Alcotest.failf "matmul did not exit (%s)" (string_of_stop s));
  (bin, Machine.retired m, p)

let test_events_roundtrip () =
  let _, retired, p = matmul_profile () in
  let snaps = Profile.snapshot p in
  Alcotest.(check int) "profiler exact" retired (Profile.total_retired p);
  let back = Profile.snaps_of_events (Profile.to_events p) in
  Alcotest.(check bool) "snaps survive the event round-trip" true (snaps = back);
  (* and through the JSONL codec *)
  let lines = List.map Obs.Json.to_line (Profile.to_events p) in
  let parsed =
    List.map
      (fun l ->
        match Obs.Json.of_line l with
        | Some ev -> ev
        | None -> Alcotest.failf "unparseable profile line: %s" l)
      lines
  in
  Alcotest.(check bool) "snaps survive the JSONL round-trip" true
    (snaps = Profile.snaps_of_events parsed)

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let render_to_string ?disasm snaps =
  let f = Filename.temp_file "prof_report" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      let oc = open_out f in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Prof_report.render ?disasm oc snaps);
      read_file f)

let test_offline_report_identical () =
  let bin, _, p = matmul_profile () in
  let disasm = Disasm.of_binfile bin in
  let live = render_to_string ~disasm (Profile.snapshot p) in
  let offline =
    (* what 'chimera profile TRACE --bin BIN' renders: events through the
       aggregator, back to snapshots *)
    let agg = Obs.Agg.create () in
    List.iter (Obs.Agg.observe agg) (Profile.to_events p);
    render_to_string ~disasm (Profile.snaps_of_events (Obs.Agg.profile_events agg))
  in
  Alcotest.(check string) "offline report byte-identical to live" live offline

(* --- folded stacks ------------------------------------------------------------ *)

let test_folded_output () =
  let _, retired, p = matmul_profile () in
  let f = Filename.temp_file "prof" ".folded" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      let oc = open_out f in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Profile.write_folded p oc);
      let lines =
        String.split_on_char '\n' (read_file f) |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check bool) "has stacks" true (lines <> []);
      let total =
        List.fold_left
          (fun acc l ->
            match String.rindex_opt l ' ' with
            | None -> Alcotest.failf "malformed folded line: %s" l
            | Some i ->
                Alcotest.(check bool)
                  (Printf.sprintf "stack starts at root: %s" l)
                  true
                  (String.length l > 4 && String.sub l 0 3 = "all");
                acc + int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
          0 lines
      in
      Alcotest.(check int) "folded weights sum to retired" retired total)

(* Trap/SMILE trampolines redirect with call-shaped jumps whose returns
   never execute; without the depth cap every such call would deepen the
   shadow stack (and the folded tree grows quadratically — a table2 run
   once produced a 1.4 GB folded file). Simulate the pathology through the
   public machine hooks and require the folded output to stay bounded with
   no weight lost. *)
let test_stack_depth_cap () =
  let p = Profile.create () in
  let call_cls =
    List.find (fun c -> Profile.is_call c && not (Profile.is_ret c))
      (List.init 64 Fun.id)
  in
  let n = 10_000 in
  for i = 0 to n - 1 do
    let entry = 0x1000 + (8 * i) in
    let row = Profile.bind p ~entry ~classes:Bytes.empty ~term:call_cls in
    Profile.begin_dispatch p (Some row);
    (* retired 1 > executed 0: the call terminator itself retired, so the
       dispatch ends in a push to a callee that never returns *)
    Profile.block_dispatch p row ~executed:0 ~retired:1 ~cycles:1 ~tlb:0
      ~icache:0 ~fault:false ~target:(0x1000 + (8 * (i + 1)))
  done;
  let f = Filename.temp_file "prof" ".folded" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      let oc = open_out f in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          Profile.write_folded p oc);
      let lines =
        String.split_on_char '\n' (read_file f)
        |> List.filter (fun l -> l <> "")
      in
      let depth l =
        String.fold_left (fun acc c -> if c = ';' then acc + 1 else acc) 0 l
      in
      let max_depth = List.fold_left (fun acc l -> max acc (depth l)) 0 lines in
      Alcotest.(check bool)
        (Printf.sprintf "stack depth capped (deepest %d)" max_depth)
        true
        (max_depth >= 64 && max_depth <= 256);
      let total =
        List.fold_left
          (fun acc l ->
            match String.rindex_opt l ' ' with
            | None -> Alcotest.failf "malformed folded line: %s" l
            | Some i ->
                acc + int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
          0 lines
      in
      Alcotest.(check int) "no weight lost past the cap" n total)

(* --- regression gate ----------------------------------------------------------- *)

let baseline_json =
  {|{
  "experiments": [
    { "name": "fig13", "wall_s": 10.0, "retired": 409005173, "mips": 29.3,
      "tlb_hit_rate": 0.9604, "chain_hit_rate": 0.9934 },
    { "name": "micro", "wall_s": 0.1, "retired": 7260000,
      "tlb_hit_rate": 0.9868, "chain_hit_rate": 0.9926 }
  ]
}|}

let with_baseline json f =
  let file = Filename.temp_file "baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc json;
      close_out oc;
      f file)

let test_regress_gate () =
  with_baseline baseline_json (fun file ->
      let baseline = Regress.load_baseline file in
      Alcotest.(check int) "experiments loaded" 2 (List.length baseline);
      let identical =
        List.map
          (fun (n, m) ->
            (n, { m with Regress.wall_s = m.Regress.wall_s }))
          baseline
      in
      Alcotest.(check (list (pair string string)))
        "identical run passes" []
        (Regress.compare_run ~baseline ~current:identical ());
      (* improvements never fail *)
      let better =
        List.map
          (fun (n, m) ->
            ( n,
              { m with
                Regress.wall_s = m.Regress.wall_s /. 2.;
                tlb_hit_rate =
                  Option.map (fun r -> r +. 0.001) m.Regress.tlb_hit_rate } ))
          baseline
      in
      Alcotest.(check (list (pair string string)))
        "improvements pass" []
        (Regress.compare_run ~baseline ~current:better ());
      (* a doctored current run trips every checked metric *)
      let doctored =
        List.map
          (fun (n, m) ->
            if n = "fig13" then
              ( n,
                { m with
                  Regress.wall_s = m.Regress.wall_s *. 2.;
                  retired = m.Regress.retired + 1;
                  tlb_hit_rate =
                    Option.map (fun r -> r -. 0.1) m.Regress.tlb_hit_rate;
                  chain_hit_rate =
                    Option.map (fun r -> r -. 0.1) m.Regress.chain_hit_rate } )
            else (n, m))
          baseline
      in
      let fails = Regress.compare_run ~baseline ~current:doctored () in
      Alcotest.(check int) "four regressions detected" 4 (List.length fails);
      List.iter
        (fun (n, _) -> Alcotest.(check string) "all against fig13" "fig13" n)
        fails;
      Alcotest.(check bool) "report names the regressions" true
        (String.length (Regress.report fails) > String.length (Regress.report []));
      (* sub-min_wall baselines skip the (noisy) wall check but keep retired *)
      let micro_slow =
        List.map
          (fun (n, m) ->
            if n = "micro" then (n, { m with Regress.wall_s = 10.0 }) else (n, m))
          baseline
      in
      Alcotest.(check (list (pair string string)))
        "sub-min_wall baseline skips wall check" []
        (Regress.compare_run ~baseline ~current:micro_slow ());
      (* experiments missing from either side are ignored *)
      Alcotest.(check (list (pair string string)))
        "disjoint experiment sets pass" []
        (Regress.compare_run ~baseline
           ~current:[ ("new_exp", List.assoc "fig13" baseline) ]
           ()))

let test_regress_malformed () =
  with_baseline "{ not json" (fun file ->
      match Regress.load_baseline file with
      | _ -> Alcotest.fail "malformed baseline must not load"
      | exception Failure _ -> ());
  with_baseline "{\"experiments\": [ { \"name\": \"x\" } ]}" (fun file ->
      match Regress.load_baseline file with
      | _ -> Alcotest.fail "missing metrics must not load"
      | exception Failure msg ->
          Alcotest.(check bool) "error names the field" true
            (String.length msg > 0))

(* Every committed BENCH_PR*.json trajectory file stays loadable as a
   baseline (older files carry fields the gate no longer reads) and passes
   the gate against itself. dune copies them next to the test directory. *)
let test_regress_committed () =
  let files =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_PR" f && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "committed baselines found" true (files <> []);
  List.iter
    (fun f ->
      let baseline = Regress.load_baseline (Filename.concat ".." f) in
      Alcotest.(check bool) (f ^ " has experiments") true (baseline <> []);
      Alcotest.(check (list (pair string string)))
        (f ^ " passes against itself") []
        (Regress.compare_run ~baseline ~current:baseline ()))
    files

let () =
  Alcotest.run "chimera_prof"
    [ ("classes", [ Alcotest.test_case "class_code" `Quick test_class_code ]);
      ("engines",
       QCheck_alcotest.to_alcotest prop_engine_equivalence
       :: [ Alcotest.test_case "warm-TLB permission downgrade" `Quick
              test_warm_tlb_downgrade ]);
      ("events",
       [ Alcotest.test_case "to_events/snaps_of_events round-trip" `Quick
           test_events_roundtrip;
         Alcotest.test_case "offline report identical to live" `Quick
           test_offline_report_identical;
         Alcotest.test_case "folded stacks sum to retired" `Quick
           test_folded_output;
         Alcotest.test_case "unreturning calls hit the depth cap" `Quick
           test_stack_depth_cap ]);
      ("regress",
       [ Alcotest.test_case "gate passes clean, fails doctored" `Quick
           test_regress_gate;
         Alcotest.test_case "malformed baselines rejected" `Quick
           test_regress_malformed;
         Alcotest.test_case "committed baselines load" `Quick
           test_regress_committed ]) ]
