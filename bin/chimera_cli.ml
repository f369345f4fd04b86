(* chimera — command-line front end to the rewriting toolchain.

   Binaries live on disk in the SELF container (see Binfile.save):

     chimera gen matmul mm.self            build a sample RVV binary
     chimera gen spec:omnetpp_r o.self     build a synthetic benchmark
     chimera info mm.self                  sections, symbols, disassembly
     chimera rewrite -m downgrade mm.self mm.base.self
     chimera run --isa rv64gc mm.base.self run under the Chimera runtime
*)

open Cmdliner

let isa_of_string = function
  | "rv64im" | "base" -> Ok Ext.base
  | "rv64imc" | "rv64gc" -> Ok Ext.rv64gc
  | "rv64imcv" | "rv64gcv" -> Ok Ext.rv64gcv
  | "rv64imcp" | "rv64gcp" -> Ok (Ext.of_list [ Ext.C; Ext.P ])
  | "all" -> Ok Ext.all
  | s -> Error (`Msg (Printf.sprintf "unknown ISA %S (rv64gc, rv64gcv, rv64gcp, base, all)" s))

let isa_conv = Arg.conv (isa_of_string, fun fmt isa -> Ext.pp fmt isa)

(* ---- gen ---------------------------------------------------------------- *)

let gen_kinds =
  "matmul (RVV), matmul-scalar, vecadd, vecadd-scalar, fibonacci, \
   gemv, gemv-scalar, or spec:<profile> (e.g. spec:omnetpp_r)"

let cmd_gen kind out n =
  let bin =
    match kind with
    | "matmul" -> Programs.matmul `Ext ~n
    | "matmul-scalar" -> Programs.matmul `Base ~n
    | "vecadd" -> Programs.vecadd `Ext ~n
    | "vecadd-scalar" -> Programs.vecadd `Base ~n
    | "fibonacci" -> Programs.fibonacci ~rounds:n ()
    | "gemv" -> Programs.gemv `Ext ~sew:Inst.E64 ~n
    | "gemv-scalar" -> Programs.gemv `Base ~sew:Inst.E64 ~n
    | k when String.length k > 5 && String.sub k 0 5 = "spec:" -> (
        let name = String.sub k 5 (String.length k - 5) in
        match Specgen.find name with
        | pr -> Specgen.build pr
        | exception Not_found ->
            Printf.eprintf "unknown profile %s; known: %s\n" name
              (String.concat ", "
                 (List.map (fun p -> p.Specgen.sp_name)
                    (Specgen.spec_profiles @ Specgen.realworld_profiles)));
            exit 2)
    | k ->
        Printf.eprintf "unknown kind %s; known: %s\n" k gen_kinds;
        exit 2
  in
  Binfile.save out bin;
  Format.printf "%a@.-> %s@." Binfile.pp_summary bin out

(* ---- info --------------------------------------------------------------- *)

let cmd_info file disasm_count cfg_out =
  let bin = Binfile.load_file file in
  Format.printf "%a@." Binfile.pp_summary bin;
  (match cfg_out with
  | None -> ()
  | Some path ->
      let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Format.fprintf (Format.formatter_of_out_channel oc) "%a@." Cfg.pp_dot cfg);
      Format.printf "CFG written to %s (graphviz)@." path);
  if disasm_count > 0 then begin
    let dis = Disasm.of_binfile bin in
    Format.printf "@.recursive-descent coverage: %d instructions, %d/%d bytes@."
      (Disasm.count dis) (Disasm.covered_bytes dis) (Binfile.code_size bin);
    Format.printf "first %d instructions:@." disasm_count;
    let shown = ref 0 in
    (try
       Disasm.iter dis (fun i ->
           if !shown >= disasm_count then raise Exit;
           incr shown;
           Format.printf "  %a@." Disasm.pp_insn i)
     with Exit -> ())
  end

(* ---- rewrite -------------------------------------------------------------- *)

let cmd_rewrite mode style no_gp infile outfile =
  let bin = Binfile.load_file infile in
  let mode =
    match mode with
    | "downgrade" -> Chbp.Downgrade
    | "upgrade" -> Chbp.Upgrade
    | "empty" -> Chbp.Empty
    | m ->
        Printf.eprintf "unknown mode %s (downgrade, upgrade, empty)\n" m;
        exit 2
  in
  let style = if style then `Trap else `Smile in
  let ctx =
    Chbp.rewrite
      ~options:{ (Chbp.default_options mode) with style; use_gp = not no_gp }
      bin
  in
  let out = Chbp.result ctx in
  Binfile.save outfile out;
  Format.printf "%a@.@.%a@.-> %s@." Binfile.pp_summary out Chbp.pp_stats
    (Chbp.stats ctx) outfile;
  Format.printf
    "note: the fault-handling table lives with the rewriting context; use@.\
     'chimera run' (which rewrites in memory) to execute with recovery.@."

(* ---- run ------------------------------------------------------------------ *)

(* single-step the first [n] instructions, printing pc and the decoded
   instruction (from the current view, so trampolines appear as patched) *)
let trace_steps m handlers n fuel =
  let shown = ref 0 and stop = ref None and steps = ref 0 in
  while !stop = None && !steps < fuel do
    (if !shown < n then begin
       let pc = Machine.pc m in
       let mem = Machine.mem m in
       let lo = Memory.peek_u16 mem pc in
       let hi = Memory.peek_u16 mem (pc + 2) in
       (match Decode.decode ~lo ~hi with
       | Decode.Ok (i, _) -> Format.printf "  %08x: %s@." pc (Inst.to_string i)
       | Decode.Illegal r -> Format.printf "  %08x: <illegal: %s>@." pc r);
       incr shown;
       if !shown = n then Format.printf "  ... (trace limit reached)@."
     end);
    (match Machine.step ~handlers m with Some s -> stop := Some s | None -> ());
    incr steps
  done;
  match !stop with Some s -> s | None -> Machine.Fuel_exhausted

let cmd_run file isa fuel plain show_counters steps trace_file profile_file =
  let bin = Binfile.load_file file in
  let prof =
    match profile_file with
    | None -> None
    | Some _ ->
        let p = Profile.create () in
        Profile.set_global (Some p);
        Some p
  in
  let trace_oc =
    match trace_file with
    | None -> None
    | Some f ->
        let oc =
          try open_out f
          with Sys_error e ->
            Printf.eprintf "cannot open trace file: %s\n" e;
            exit 2
        in
        Obs.enable ~sink:(Obs.Json.channel_sink oc);
        Some oc
  in
  let stop, m, counters =
    if plain then begin
      let mem = Loader.load bin in
      let m = Machine.create ~mem ~isa () in
      Loader.init_machine m bin;
      let stop =
        if steps > 0 then trace_steps m Machine.default_handlers steps fuel
        else Machine.run ~fuel m
      in
      (stop, m, None)
    end
    else if steps > 0 then begin
      let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
      let rt = Chimera_rt.create ctx in
      let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa () in
      Loader.init_machine m (Chimera_rt.rewritten rt);
      let stop = trace_steps m (Chimera_rt.handlers rt) steps fuel in
      (stop, m, Some (Chimera_rt.counters rt))
    end
    else
      let dep = Chimera_system.deploy bin ~cores:[ isa ] in
      let stop, m = Chimera_system.run dep ~isa ~fuel in
      (stop, m, Some (Chimera_system.counters dep))
  in
  (* append the profiler's tb_profile rows to the trace so the offline
     'chimera profile TRACE' report matches the live one exactly *)
  (match (prof, trace_oc) with
  | Some p, Some _ -> List.iter Obs.emit (Profile.to_events p)
  | _ -> ());
  (match (trace_file, trace_oc) with
  | Some f, Some oc ->
      let n = Obs.events_emitted () in
      Obs.disable ();
      close_out oc;
      Format.printf "trace: %d events -> %s@." n f
  | _ -> ());
  (match (prof, profile_file) with
  | Some p, Some f ->
      Profile.set_global None;
      let snaps = Profile.snapshot p in
      let oc =
        try open_out f
        with Sys_error e ->
          Printf.eprintf "cannot open profile file: %s\n" e;
          exit 2
      in
      (* annotate with the live machine's inline-cache state: the
         translations are still resident, so the report can say how each
         call site resolved *)
      let ics =
        List.map
          (fun i ->
            { Prof_report.icn_site = i.Machine.ici_site;
              icn_state =
                (match i.Machine.ici_state with
                | `Empty -> "empty"
                | `Mono -> "mono"
                | `Poly -> "poly"
                | `Mega -> "mega");
              icn_targets = i.Machine.ici_targets;
              icn_hits = i.Machine.ici_hits;
              icn_misses = i.Machine.ici_misses })
          (Machine.ic_infos m)
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Prof_report.render ~disasm:(Disasm.of_binfile bin) ~ics oc snaps);
      let folded = f ^ ".folded" in
      let foc = open_out folded in
      Fun.protect ~finally:(fun () -> close_out foc) (fun () -> Profile.write_folded p foc);
      Format.printf "profile: %d blocks -> %s (stacks: %s)@." (List.length snaps) f folded
  | _ -> ());
  (match counters with
  | Some c when show_counters -> Format.printf "%a@." Counters.pp c
  | Some _ | None -> ());
  (match stop with
  | Machine.Exited code ->
      Format.printf "exit %d after %d instructions (%d cycles, %d vector)@." code
        (Machine.retired m) (Machine.cycles m) (Machine.vector_retired m)
  | Machine.Faulted f ->
      Format.printf "fault: %s after %d instructions@." (Fault.to_string f)
        (Machine.retired m);
      exit 1
  | Machine.Fuel_exhausted ->
      Format.printf "fuel exhausted (%d instructions)@." (Machine.retired m);
      exit 1);
  exit 0

(* ---- profile (offline) ---------------------------------------------------- *)

(* Rebuild the profiler report from a recorded trace: 'run --profile --trace'
   appends the tb_profile rows to the trace, so the offline report is
   byte-identical to the live one (modulo disassembly, which needs --bin). *)
let cmd_profile trace bin_file top out =
  let events =
    try Obs.Json.read_file trace
    with Failure msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let agg = Obs.Agg.create () in
  List.iter (Obs.Agg.observe agg) events;
  let snaps = Profile.snaps_of_events (Obs.Agg.profile_events agg) in
  if snaps = [] then begin
    Printf.eprintf
      "%s: no tb_profile events — record with 'chimera run --profile FILE --trace %s'\n"
      trace trace;
    exit 1
  end;
  let disasm =
    Option.map (fun f -> Disasm.of_binfile (Binfile.load_file f)) bin_file
  in
  let totals = Obs.Agg.totals agg in
  match out with
  | None -> Prof_report.render ~top ?disasm ~totals stdout snaps
  | Some f ->
      let oc = open_out f in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Prof_report.render ~top ?disasm ~totals oc snaps)

(* ---- metrics --------------------------------------------------------------- *)

(* One run of a binary under the Chimera runtime with the always-on metrics
   subsystem enabled, dumping the final snapshot. This is the serving-daemon
   view of an execution: live counters, latency quantiles and the health
   watchdog's verdicts, at one-branch cost on the paths --trace would slow
   down. --capture additionally keeps the most recent Obs events in a
   bounded in-memory ring for post-mortem context, counting (never hiding)
   what the ring overwrote. *)
let cmd_metrics file isa fuel fmt out capture =
  let bin = Binfile.load_file file in
  Metrics.enable ();
  if capture > 0 then Obs.enable_memory ~capacity:capture ();
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa () in
  let stop = Chimera_rt.run rt ~fuel m in
  let snap = Metrics.Snapshot.take () in
  let health =
    Metrics.Watchdog.evaluate ~prev:Metrics.Snapshot.empty ~cur:snap ()
  in
  let text =
    match fmt with
    | "prometheus" -> Metrics.Snapshot.to_prometheus ~health snap
    | "json" -> Metrics.Snapshot.to_json ~health snap ^ "\n"
    | f ->
        Printf.eprintf "unknown format %s (prometheus, json)\n" f;
        exit 2
  in
  (match out with
  | None -> print_string text
  | Some f ->
      let oc =
        try open_out f
        with Sys_error e ->
          Printf.eprintf "cannot open output file: %s\n" e;
          exit 2
      in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
      Format.printf "metrics snapshot -> %s@." f);
  if capture > 0 then begin
    let kept = List.length (Obs.recent ()) in
    Obs.disable ();
    Format.printf "captured %d recent events (%d overwritten; %d emitted)@." kept
      (Obs.events_dropped ()) (Obs.events_emitted ())
  end;
  List.iter
    (fun v ->
      if not v.Metrics.v_ok then
        Format.printf "health: %s DEGRADED — %s@." v.Metrics.v_rule
          v.Metrics.v_detail)
    health;
  match stop with
  | Machine.Exited code ->
      Format.printf "exit %d after %d instructions (%s)@." code
        (Machine.retired m)
        (if Metrics.Watchdog.healthy health then "healthy" else "degraded");
      exit 0
  | Machine.Faulted f ->
      Printf.eprintf "fault: %s after %d instructions\n" (Fault.to_string f)
        (Machine.retired m);
      exit 1
  | Machine.Fuel_exhausted ->
      Printf.eprintf "fuel exhausted (%d instructions)\n" (Machine.retired m);
      exit 1

(* ---- cache ---------------------------------------------------------------- *)

let cmd_cache_stat dir =
  let c = Cache.open_dir dir in
  let entries, bytes = Cache.stat c in
  Format.printf "%s: %d entries, %d bytes@." dir entries bytes

let cmd_cache_clear dir =
  let c = Cache.open_dir dir in
  Format.printf "%s: removed %d entries@." dir (Cache.clear c)

(* One recorded run of a server request, so a later 'serve --cache' of the
   same binary, ISA, mode and engine starts warm: it stores under exactly
   the keys the server reads (a prewarm of an already-cached binary seeds
   from them first). *)
let cmd_cache_prewarm dir file isa fuel mode =
  let bin = Binfile.load_file file in
  let c = Cache.open_dir dir in
  let mode =
    match mode with
    | "downgrade" -> Chbp.Downgrade
    | "upgrade" -> Chbp.Upgrade
    | "empty" -> Chbp.Empty
    | m ->
        Printf.eprintf "unknown mode %s (downgrade, upgrade, empty)\n" m;
        exit 2
  in
  match Serve.execute ~cache:c ~isa ~mode ~fuel bin with
  | Machine.Exited code, retired, _, warm ->
      let entries, bytes = Cache.stat c in
      Format.printf
        "%s: exit %d after %d instructions; cache now %d entries, %d bytes@."
        (if warm then "already warm" else "cold start")
        code retired entries bytes
  | Machine.Faulted f, _, _, _ ->
      Printf.eprintf "fault: %s\n" (Fault.to_string f);
      exit 1
  | Machine.Fuel_exhausted, _, _, _ ->
      Printf.eprintf "fuel exhausted\n";
      exit 1

(* ---- serve ----------------------------------------------------------------- *)

(* Multi-tenant rewrite-and-execute server (lib/serve): either a one-shot
   batch over the command line's guests, or a long-running daemon on a
   Unix-domain socket. Both share one Domain pool and (with --cache) one
   persistent translation cache across every tenant. *)
let cmd_serve socket guests jobs cache_dir repeat max_queue fuel isa
    metrics_out max_requests =
  let cache = Option.map Cache.open_dir cache_dir in
  if metrics_out <> None then Metrics.enable ();
  let jobs = max 1 jobs in
  let ext_workers = jobs / 2 in
  let base_workers = jobs - ext_workers in
  let srv = Serve.create ?cache ?max_queue ~base_workers ~ext_workers () in
  let guest_failed = ref false in
  (match socket with
  | Some path ->
      Format.printf "serving on %s: %d workers%s; RUN/SPEC/STAT/QUIT@." path jobs
        (match cache_dir with Some d -> ", cache " ^ d | None -> "");
      Serve.Daemon.listen srv ~path ~isa ?max_requests ()
  | None ->
      if guests = [] then begin
        Printf.eprintf
          "serve: need guests (FILE.self or spec:<profile>) or --socket PATH\n";
        exit 2
      end;
      let load a =
        if String.length a > 5 && String.sub a 0 5 = "spec:" then begin
          let name = String.sub a 5 (String.length a - 5) in
          match Specgen.find name with
          | pr -> (name, Specgen.build pr)
          | exception Not_found ->
              Printf.eprintf "unknown profile %s\n" name;
              exit 2
        end
        else (Filename.remove_extension (Filename.basename a), Binfile.load_file a)
      in
      let loaded = List.map load guests in
      for _ = 1 to max 1 repeat do
        List.iter
          (fun (tenant, bin) ->
            match Serve.submit srv ~tenant ~isa ~fuel bin with
            | Ok _ -> ()
            | Error `Saturated ->
                Printf.eprintf "rejected (queue saturated): %s\n" tenant;
                guest_failed := true)
          loaded
      done;
      Serve.drain srv;
      List.iter
        (fun o ->
          if o.Serve.o_exit = None then guest_failed := true;
          Format.printf
            "%-16s #%-4d %-10s retired=%-10d cycles=%-10d warm=%b wait_us=%d \
             latency_us=%d@."
            o.Serve.o_tenant o.Serve.o_id o.Serve.o_stop o.Serve.o_retired
            o.Serve.o_cycles o.Serve.o_warm o.Serve.o_wait_us o.Serve.o_latency_us)
        (Serve.outcomes srv);
      let s = Serve.stats srv in
      Format.printf "admitted %d, done %d, rejected %d, queue peak %d@."
        s.Serve.admitted s.Serve.completed s.Serve.rejected s.Serve.peak_depth);
  Serve.shutdown srv;
  (match metrics_out with
  | None -> ()
  | Some f ->
      let snap = Metrics.Snapshot.take () in
      let health =
        Metrics.Watchdog.evaluate ~prev:Metrics.Snapshot.empty ~cur:snap ()
      in
      let oc =
        try open_out f
        with Sys_error e ->
          Printf.eprintf "cannot open output file: %s\n" e;
          exit 2
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Metrics.Snapshot.to_prometheus ~health snap));
      Format.printf "metrics snapshot -> %s (%s)@." f
        (if Metrics.Watchdog.healthy health then "watchdog healthy"
         else "watchdog DEGRADED");
      if not (Metrics.Watchdog.healthy health) then exit 1);
  if !guest_failed then exit 1

(* ---- command line ---------------------------------------------------------- *)

let gen_cmd =
  let kind = Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND" ~doc:gen_kinds) in
  let out = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT") in
  let n = Arg.(value & opt int 16 & info [ "n" ] ~doc:"Problem size / rounds.") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a sample binary") Term.(const cmd_gen $ kind $ out $ n)

let info_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let n = Arg.(value & opt int 16 & info [ "d"; "disasm" ] ~doc:"Instructions to list (0 = none).") in
  let cfg = Arg.(value & opt (some string) None & info [ "cfg" ] ~doc:"Write the CFG as graphviz dot to $(docv).") in
  Cmd.v (Cmd.info "info" ~doc:"Inspect a SELF binary") Term.(const cmd_info $ file $ n $ cfg)

let rewrite_cmd =
  let mode =
    Arg.(value & opt string "downgrade" & info [ "m"; "mode" ] ~doc:"downgrade, upgrade or empty.")
  in
  let trap = Arg.(value & flag & info [ "trap" ] ~doc:"Use trap-based trampolines (strawman).") in
  let no_gp =
    Arg.(value & flag & info [ "no-gp" ]
         ~doc:"General-register SMILE (paper Fig. 5): trampolines over lui+load idioms.")
  in
  let infile = Arg.(required & pos 0 (some string) None & info [] ~docv:"IN") in
  let outfile = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT") in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Rewrite a binary with CHBP")
    Term.(const cmd_rewrite $ mode $ trap $ no_gp $ infile $ outfile)

let run_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let isa = Arg.(value & opt isa_conv Ext.rv64gcv & info [ "isa" ] ~doc:"Hart capabilities.") in
  let fuel = Arg.(value & opt int 100_000_000 & info [ "fuel" ] ~doc:"Instruction budget.") in
  let plain =
    Arg.(value & flag & info [ "plain" ] ~doc:"Run without Chimera (no rewriting/recovery).")
  in
  let counters =
    Arg.(value & flag & info [ "counters" ] ~doc:"Print the runtime's recovery counters.")
  in
  let steps =
    Arg.(value & opt int 0 & info [ "steps" ]
         ~doc:"Print the first $(docv) executed instructions (0 = off).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a JSONL event trace to $(docv) (schema: OBSERVABILITY.md).")
  in
  let profile =
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE"
         ~doc:"Profile the guest: write a hot-block/instruction-mix report to \
               $(docv) and folded call stacks to $(docv).folded (flamegraph \
               input). Combine with $(b,--trace) to embed the profile in the \
               trace for offline 'chimera profile'.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a binary on a simulated hart")
    Term.(const cmd_run $ file $ isa $ fuel $ plain $ counters $ steps $ trace $ profile)

let profile_cmd =
  let trace = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE") in
  let bin =
    Arg.(value & opt (some string) None & info [ "bin" ] ~docv:"FILE"
         ~doc:"SELF binary to annotate hot blocks with disassembly.")
  in
  let top = Arg.(value & opt int 20 & info [ "top" ] ~doc:"Hot blocks to list.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the report to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Render a profiler report from a recorded trace")
    Term.(const cmd_profile $ trace $ bin $ top $ out)

let metrics_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let isa = Arg.(value & opt isa_conv Ext.rv64gcv & info [ "isa" ] ~doc:"Hart capabilities.") in
  let fuel = Arg.(value & opt int 100_000_000 & info [ "fuel" ] ~doc:"Instruction budget.") in
  let fmt =
    Arg.(value & opt string "prometheus" & info [ "format" ] ~docv:"FMT"
         ~doc:"Exposition format: $(b,prometheus) (text exposition, default) \
               or $(b,json).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the snapshot to $(docv) instead of stdout.")
  in
  let capture =
    Arg.(value & opt int 0 & info [ "capture" ] ~docv:"N"
         ~doc:"Also keep the most recent $(docv) observability events in a \
               bounded in-memory ring (0 = off). Overwritten events are \
               counted and reported, never silently lost.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a binary under the Chimera runtime with the always-on \
             metrics subsystem enabled and dump the final snapshot \
             (counters, latency quantiles, health watchdog verdicts)")
    Term.(const cmd_metrics $ file $ isa $ fuel $ fmt $ out $ capture)

let cache_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let stat =
    Cmd.v
      (Cmd.info "stat" ~doc:"Entry count and byte size of a cache directory")
      Term.(const cmd_cache_stat $ dir)
  in
  let clear =
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every cache entry")
      Term.(const cmd_cache_clear $ dir)
  in
  let prewarm =
    let file = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
    let isa = Arg.(value & opt isa_conv Ext.rv64gcv & info [ "isa" ] ~doc:"Hart capabilities.") in
    let fuel = Arg.(value & opt int 100_000_000 & info [ "fuel" ] ~doc:"Instruction budget.") in
    let mode =
      Arg.(value & opt string "downgrade" & info [ "m"; "mode" ] ~doc:"downgrade, upgrade or empty.")
    in
    Cmd.v
      (Cmd.info "prewarm"
         ~doc:"Run a binary once as a $(b,serve) request, recording, and \
               store its rewrite context and translation plan so later \
               $(b,serve --cache) runs of it against the same directory \
               start warm")
      Term.(const cmd_cache_prewarm $ dir $ file $ isa $ fuel $ mode)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Persistent translation cache maintenance")
    [ stat; clear; prewarm ]

let serve_cmd =
  let guests =
    Arg.(value & pos_all string []
         & info [] ~docv:"GUEST"
             ~doc:"Guests to execute: $(b,FILE.self) binaries or \
                   $(b,spec:<profile>) synthetic benchmarks. The file/profile \
                   name doubles as the tenant name.")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on a Unix-domain socket at $(docv) instead of running a \
               batch: a line protocol of RUN <tenant> <file.self>, \
               SPEC <tenant> <profile>, STAT and QUIT, with synchronous \
               OK/ERR replies.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains in the execution pool (split between the base \
               and extension scheduler classes, with work stealing).")
  in
  let cache =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Shared persistent translation cache: every tenant's rewrite \
               contexts and translation plans land in $(docv), so replicas \
               of one digest start warm whichever tenant runs first.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
         ~doc:"Submit the batch guest list $(docv) times (replicas share \
               cache artifacts; handy for demonstrating warm starts).")
  in
  let max_queue =
    Arg.(value & opt (some int) None & info [ "max-queue" ] ~docv:"N"
         ~doc:"Admission bound: requests arriving with $(docv) already \
               queued are rejected (unbounded by default).")
  in
  let fuel = Arg.(value & opt int 100_000_000 & info [ "fuel" ] ~doc:"Instruction budget per request.") in
  let isa = Arg.(value & opt isa_conv Ext.rv64gcv & info [ "isa" ] ~doc:"Hart capabilities.") in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Enable metrics and dump a Prometheus snapshot (admission \
               counters, per-tenant retired, latency histogram, health \
               watchdog) to $(docv) at shutdown; exits nonzero if the \
               watchdog is degraded.")
  in
  let max_requests =
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"N"
         ~doc:"With --socket: stop listening after $(docv) RUN/SPEC \
               commands (mainly for scripted smoke tests).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Multi-tenant rewrite-and-execute server: admit guests into a \
             Domain pool sharing one persistent translation cache")
    Term.(const cmd_serve $ socket $ guests $ jobs $ cache $ repeat
          $ max_queue $ fuel $ isa $ metrics $ max_requests)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "chimera" ~version:"1.0.0"
             ~doc:"Transparent ISAX heterogeneous computing via binary rewriting")
          [ gen_cmd; info_cmd; rewrite_cmd; run_cmd; profile_cmd; metrics_cmd;
            cache_cmd; serve_cmd ]))
