(* The benchmark program: runs one workload over fixed work drawn from a
   seed, checks every request against an oracle and prints one JSON result
   line last. README.md describes the workloads and metrics. *)

open Perfbench

let now = Unix.gettimeofday
let isa = Ext.rv64gc
let mode = Chbp.Downgrade
let fuel = Serve.default_fuel
let tiered w = w <> Plan.Deploy

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type args = { workload : Plan.workload; seed : int; seconds : int; trace : bool }

let parse_args () =
  let w = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let names = String.concat "|" (List.map fst Plan.workloads) in
  Arg.parse
    [ ("--workload", Arg.Set_string w, names ^ " the workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Plan.workload_of_string !w with
  | None -> die "unknown workload %S (one of %s)" !w names
  | Some workload ->
      if !seconds < 1 then die "--seconds must be at least 1";
      { workload; seed = !seed; seconds = !seconds; trace = !trace <> 0 }

(* Work is fixed per pass, and the number of passes follows from --seconds
   and each pass's nominal length on a 2-vCPU Xeon, so a run's work
   depends on its arguments only, never on the clock. The floor keeps
   enough samples for the tail percentile. *)
let passes w seconds =
  let nominal, floor =
    match w with Plan.Deploy -> (3.9, 4) | Steady -> (1.5, 5) | Serve_mix -> (3.0, 1)
  in
  max floor (int_of_float (Float.round (float seconds /. nominal)))

(* ------------------------------------------------------------------ *)
(* Machine stamp                                                       *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> close_in ic; List.rev acc
      in
      go []

let field line key =
  match String.index_opt line ':' with
  | Some i when String.trim (String.sub line 0 i) = key ->
      Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
  | _ -> None

let stamp () =
  let cpuinfo = read_lines "/proc/cpuinfo" in
  let nproc = List.length (List.filter_map (fun l -> field l "processor") cpuinfo) in
  let model =
    match List.find_map (fun l -> field l "model name") cpuinfo with Some m -> m | None -> "unknown"
  in
  Printf.sprintf "nproc=%d cpu=%S ocaml=%s" nproc model Sys.ocaml_version

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mib () =
  match List.find_map (fun l -> field l "VmHWM") (read_lines "/proc/self/status") with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float kb /. 1024.)
  | None -> die "no VmHWM in /proc/self/status"

(* Process CPU time of every domain, from getrusage. *)
let cpu_s = Sys.time

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* ------------------------------------------------------------------ *)
(* Inputs and oracles                                                  *)
(* ------------------------------------------------------------------ *)

type job = {
  guest : Plan.guest;
  bin : Binfile.t;
  code : int;  (** bytes of executable sections *)
  mutable native : (int * int) option;  (** exit code and cycles on rv64gcv *)
  mutable solo : (int * int) option;  (** retired and cycles, solo and uncached *)
  mutable lazy_rewrites : int;
}

(* The original binary on a hart with the vector extension: no CHBP
   involved, so it is an oracle independent of the rewriter. *)
let native_run bin =
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:Ext.rv64gcv () in
  Loader.init_machine m bin;
  match Machine.run ~fuel m with Machine.Exited c -> Some (c, Machine.cycles m) | _ -> None

let add_oracles w jobs =
  List.iter
    (fun j ->
      j.native <- native_run j.bin;
      if w <> Plan.Deploy then begin
        (match Serve.execute ~isa ~mode ~tiered:true ~fuel j.bin with
        | Machine.Exited _, retired, cycles, _ -> j.solo <- Some (retired, cycles)
        | _ -> ());
        (* through the runtime directly, so that its counters are visible;
           the default engine configuration is the one [Serve.execute]
           pins for an untiered request *)
        let rt = Chimera_rt.create (Chbp.rewrite ~options:(Chbp.default_options mode) j.bin) in
        ignore (Chimera_rt.run rt ~fuel (Machine.create ~mem:(Chimera_rt.load rt) ~isa ()));
        j.lazy_rewrites <- (Chimera_rt.counters rt).Counters.lazy_rewrites;
        if (j.lazy_rewrites > 0) <> Plan.expects_lazy j.guest then
          die "guest %s rewrites lazily %d times, against the workload's design"
            (Plan.guest_name j.guest) j.lazy_rewrites
      end)
    jobs

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  job : job;
  t_start : float;
  t_end : float;
  ok : bool;
  retired : int;
  cycles : int;
  warm : bool;
  wait_s : float;  (** queue wait before the first instruction (pool only) *)
  cpu : float;  (** process CPU time during the request (single client only) *)
}

let check w job ~exit ~retired ~cycles =
  match job.native with
  | Some (code, _) when exit = Some code -> w = Plan.Deploy || job.solo = Some (retired, cycles)
  | _ -> false

let exit_of = function Machine.Exited c -> Some c | _ -> None

let failed job t_start t_end =
  { job; t_start; t_end; ok = false; retired = 0; cycles = 0; warm = false; wait_s = 0.; cpu = 0. }

let run_direct w ?cache job =
  let c0 = cpu_s () in
  let t_start = now () in
  let r = try Some (Serve.execute ?cache ~isa ~mode ~tiered:(tiered w) ~fuel job.bin) with _ -> None in
  let t_end = now () in
  let cpu = cpu_s () -. c0 in
  match r with
  | Some (stop, retired, cycles, warm) ->
      { job; t_start; t_end; ok = check w job ~exit:(exit_of stop) ~retired ~cycles; retired; cycles;
        warm; wait_s = 0.; cpu }
  | None -> failed job t_start t_end

(* Two closed-loop clients, this domain and one more: each takes the next
   request and submits it as soon as its own previous request completed,
   so neither waits behind the other's request. Serve keeps submit and
   await on the owning domain for the sake of Obs's single-domain event
   ring; tracing is off here, and [mu] serialises submissions. The second
   client is a domain rather than a thread because linking the threads
   library makes single-domain allocation counts vary from run to run. *)
let run_clients w server jobs =
  let queue = ref jobs and out = ref [] and mu = Mutex.create () in
  let next () =
    Mutex.protect mu (fun () ->
        match !queue with
        | [] -> None
        | j :: rest ->
            queue := rest;
            Some j)
  in
  let rec client () =
    match next () with
    | None -> ()
    | Some job ->
        let t_start = now () in
        let id =
          Mutex.protect mu (fun () ->
              Serve.submit server ~tenant:(Plan.tenant job.guest)
                ~prefer_ext:(match job.guest with Plan.Matmul _ -> true | _ -> false)
                ~isa ~mode ~tiered:true ~fuel job.bin)
        in
        let s =
          match id with
          | Error `Saturated -> failed job t_start (now ())
          | Ok id ->
              let o = Serve.await server id in
              { job; t_start; t_end = now ();
                ok = check w job ~exit:o.Serve.o_exit ~retired:o.o_retired ~cycles:o.o_cycles;
                retired = o.o_retired; cycles = o.o_cycles; warm = o.o_warm;
                wait_s = float o.o_wait_us /. 1e6; cpu = 0. }
        in
        Mutex.protect mu (fun () -> out := s :: !out);
        client ()
  in
  let other = Domain.spawn client in
  client ();
  Domain.join other;
  List.sort (fun a b -> compare a.t_start b.t_start) !out

(* With [cal], requests are interleaved with calibration points at least
   every half second, so that each request has one close on either side. *)
let run_pass w ?cal ?cache ?server jobs =
  match server with
  | Some s -> run_clients w s jobs
  | None ->
      List.map
        (fun j ->
          Option.iter (fun c -> if Calib.since_last c >= 0.5 then Calib.mark c) cal;
          run_direct w ?cache j)
        jobs

type pass = { t0 : float; wall : float; cpu : float; samples : sample list }

let timed f =
  let c0 = cpu_s () and t0 = now () in
  let samples = f () in
  { t0; wall = now () -. t0; cpu = cpu_s () -. c0; samples }

(* A measured pass, with calibration points around it. *)
let measured cal f =
  Option.iter Calib.mark cal;
  let p = timed f in
  Option.iter Calib.mark cal;
  p

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  passes : job list list;
  jobs : job list;  (** distinct *)
  cache : Cache.t option;
  server : Serve.t option;
}

let new_server cache = Serve.create ?cache ~base_workers:1 ~ext_workers:1 ()

(* Build the inputs, prewarm the cache (one cold run per warm guest stores
   its rewrite context and plan), start the server and run the warm pass.
   Everything here counts toward setup_s. *)
let setup a ~cache_dir =
  let memo = Hashtbl.create 64 in
  let job g =
    match Hashtbl.find_opt memo g with
    | Some j -> j
    | None ->
        let bin = Plan.build g in
        let j = { guest = g; bin; code = Binfile.code_size bin; native = None; solo = None; lazy_rewrites = 0 } in
        Hashtbl.add memo g j;
        j
  in
  let passes =
    List.map (List.map job) (Plan.requests a.workload ~seed:a.seed ~passes:(passes a.workload a.seconds))
  in
  let warm = List.map job (Plan.warm_pass a.workload ~seed:a.seed) in
  let cache =
    if a.workload = Plan.Deploy then None
    else begin
      let c = Cache.open_dir cache_dir in
      ignore (Cache.clear c);
      List.iter (fun j -> ignore (Serve.execute ~cache:c ~isa ~mode ~tiered:true ~fuel j.bin)) warm;
      Some c
    end
  in
  let server = if a.workload = Plan.Serve_mix then Some (new_server cache) else None in
  ignore (run_pass a.workload ?cache ?server warm);
  { passes; jobs = Hashtbl.fold (fun _ j acc -> j :: acc) memo []; cache; server }

let teardown st =
  Option.iter Serve.shutdown st.server;
  Option.iter (fun c -> ignore (Cache.clear c)) st.cache

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; n : int }

let print_result ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "metric %-28s %14.6f %-12s samples=%d\n" m.name m.value m.unit_ m.n)
    metrics;
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter (fun m -> Printf.printf "error: metric %s is not finite\n" m.name) bad;
  let correct = failed = 0 && bad = [] in
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
          (if Float.is_finite m.value then m.value else 0.) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

let failures samples = List.length (List.filter (fun s -> not s.ok) samples)

(* With one client, requests run back to back and a request's latency
   varies only with its guest kind and with the host: a burst of
   interference, or a major GC slice, lands on whichever request is
   running. So on deploy and steady every time is taken per guest kind (a
   deploy kind is a Specgen profile) as the kind's median over the run:
   latencies are the kinds' medians, each counted as often as the kind
   ran, and a pass lasts the sum over kinds of median latency times count
   per pass (likewise its CPU time). Two clients overlap their requests,
   so serve-mix keeps every request's own latency and takes the median
   over its passes' measured wall and CPU time. Every time is first scaled
   by [scale ~t0 ~t1], the host-speed factor over the interval it was
   measured in. *)
let times w ~scale passes =
  let samples = List.concat_map (fun p -> p.samples) passes in
  let np = float (List.length passes) in
  let of_sample t s = t *. scale ~t0:s.t_start ~t1:s.t_end in
  let of_pass t p = t *. scale ~t0:p.t0 ~t1:(p.t0 +. p.wall) in
  let latency s = of_sample (s.t_end -. s.t_start) s in
  if w = Plan.Serve_mix then
    ( List.map latency samples,
      Stats.median (List.map (fun p -> of_pass p.wall p) passes),
      Stats.median (List.map (fun p -> of_pass p.cpu p) passes) )
  else
    let kinds = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let k = Plan.tenant s.job.guest in
        Hashtbl.replace kinds k (s :: Option.value ~default:[] (Hashtbl.find_opt kinds k)))
      samples;
    let per_kind f = Hashtbl.fold (fun _ ss acc -> (Stats.median (List.map f ss), List.length ss) :: acc) kinds [] in
    let per_pass l = Stats.sum (List.map (fun (m, c) -> m *. float c /. np) l) in
    let lat = per_kind latency in
    ( List.concat_map (fun (m, c) -> List.init c (fun _ -> m)) lat,
      per_pass lat,
      per_pass (per_kind (fun s -> of_sample s.cpu s)) )

(* [setup_s] holds each set-up's [(start, seconds)]. *)
let end_to_end w ~scale ~setup_s ~passes =
  let samples = List.concat_map (fun p -> p.samples) passes in
  let n = List.length samples and np = List.length passes in
  if not (Stats.qualifies ~n ~permille:900) then
    die "%d samples leave fewer than %d beyond p90" n Stats.min_beyond;
  let setup = List.map (fun (t0, d) -> d *. scale ~t0 ~t1:(t0 +. d)) setup_s in
  let lat, wall, cpu = times w ~scale passes in
  let lat = List.map (fun l -> l *. 1000.) lat in
  (* what one pass holds *)
  let per_pass f = Stats.sum (List.map f samples) /. float np in
  let requests = float n /. float np in
  let native_cycles s = match s.job.native with Some (_, c) -> float c | None -> 0. in
  [ { name = "setup_s"; value = Stats.median setup; unit_ = "s"; n = List.length setup };
    { name = "latency_p50_ms"; value = Stats.percentile lat ~permille:500; unit_ = "ms"; n };
    { name = "latency_p90_ms"; value = Stats.percentile lat ~permille:900; unit_ = "ms"; n };
    { name = "code_kib_per_s"; unit_ = "KiB/s"; n;
      value = per_pass (fun s -> float s.job.code /. 1024.) /. wall };
    { name = "guest_mips"; unit_ = "MIPS"; n; value = per_pass (fun s -> float s.retired) /. wall /. 1e6 };
    { name = "requests_per_s"; unit_ = "1/s"; n; value = requests /. wall };
    { name = "cpu_ms_per_request"; unit_ = "ms"; n; value = cpu *. 1000. /. requests };
    { name = "peak_rss_mib"; value = peak_rss_mib (); unit_ = "MiB"; n = 1 };
    { name = "sim_cycle_ratio"; unit_ = "ratio"; n;
      value = Stats.ratio (per_pass (fun s -> float s.cycles)) (per_pass native_cycles) } ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-layer counts, summed over the traced pass. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 32
let bump k v = Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k))
let got k = Option.value ~default:0. (Hashtbl.find_opt acc k)

let translate_ns () =
  match Metrics.Snapshot.histogram_value (Metrics.Snapshot.take ()) "chimera_translate_ns" with
  | Some h -> float h.Metrics.Snapshot.h_sum /. 1e9
  | None -> 0.

(* Analysis runs inside [Chbp.rewrite], where the benchmark cannot place a
   span. The same three calls on the same binary are timed just before the
   request, and recorded as the analysis child of the rewrite span:
   [(name, seconds)] in call order. *)
let analysis_probe bin =
  let w0 = minor_words () in
  let t0 = now () in
  let d = Disasm.of_binfile bin in
  let t1 = now () in
  let cfg = Cfg.of_disasm d in
  let t2 = now () in
  ignore (Liveness.compute cfg);
  let t3 = now () in
  bump "analysis.insns" (float (Disasm.count d));
  bump "analysis.alloc_words" (minor_words () -. w0);
  [ ("analysis.disasm", t1 -. t0); ("analysis.cfg", t2 -. t1); ("analysis.liveness", t3 -. t2) ]

(* Lay probe durations out as consecutive child spans from [t0], cut off
   at [limit], the end of the parent: a probe can run slower than the same
   work did inside the request, and a child never outlasts its parent. *)
let add_probe sp ~parent ~req ~name ~limit t0 parts =
  (* always a fresh float, so that which floats stay live, and so the
     promoted-words count, does not depend on timing *)
  let clip t = Float.min t limit +. 0. in
  let total = Stats.sum (List.map snd parts) in
  let id = Spans.add sp ~parent ~req ~name t0 (clip (t0 +. total)) in
  ignore
    (List.fold_left
       (fun t (n, d) ->
         ignore (Spans.add sp ~parent:id ~req ~name:n (clip t) (clip (t +. d)));
         t +. d)
       t0 parts)

let rewrite_stats ctx =
  let s = Chbp.stats ctx in
  bump "rewriter.sites" (float s.Chbp.sites);
  bump "rewriter.exits" (float s.exits);
  bump "rewriter.exit_trap" (float s.exit_trap)

(* A deploy request, made of the steps [Serve.execute] takes without a
   cache, so that each gets its own span. *)
let traced_deploy sp ~req job =
  let probe = analysis_probe job.bin in
  let q0 = now () in
  let w0 = minor_words () in
  let r0 = now () in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options mode) job.bin in
  let r1 = now () in
  let w1 = minor_words () in
  let rt = Chimera_rt.create ctx in
  let mem = Chimera_rt.load rt in
  let r2 = now () in
  let tr0 = translate_ns () in
  let w2 = minor_words () in
  let m = Machine.create ~mem ~isa () in
  let stop = Chimera_rt.run rt ~fuel m in
  let r3 = now () in
  let w3 = minor_words () in
  let tr = translate_ns () -. tr0 in
  let q1 = now () in
  let root = Spans.add sp ~parent:(-1) ~req ~name:"request" q0 q1 in
  let rw = Spans.add sp ~parent:root ~req ~name:"rewriter" r0 r1 in
  add_probe sp ~parent:rw ~req ~name:"analysis" ~limit:r1 r0 probe;
  ignore (Spans.add sp ~parent:root ~req ~name:"load" r1 r2);
  let ex = Spans.add sp ~parent:root ~req ~name:"exec" r2 r3 in
  ignore (Spans.add sp ~parent:ex ~req ~name:"machine.translate" r2 (r2 +. tr));
  rewrite_stats ctx;
  bump "rewrite.alloc_words" (w1 -. w0);
  bump "exec.alloc_words" (w3 -. w2);
  bump "runtime.lazy_rewrites" (float (Chimera_rt.counters rt).Counters.lazy_rewrites);
  let retired = Machine.retired m and cycles = Machine.cycles m in
  { job; t_start = q0; t_end = q1; ok = check Plan.Deploy job ~exit:(exit_of stop) ~retired ~cycles;
    retired; cycles; warm = false; wait_s = 0.; cpu = 0. }

(* A warm request on steady: [Serve.execute] is one span. The cache work
   it does first (digesting the binary, loading the rewrite context,
   digesting the loaded image before and after the run) is repeated just
   before the request and recorded as its cache child; plan seeding and
   storing cannot be separated and stay in exec. *)
let traced_steady sp ~req cache job =
  let tag = Serve.cfg_tag ~mode ~tiered:true in
  let c0 = now () in
  let key = Cache.digest_bin job.bin ~extra:tag in
  let loaded = Cache.load_rewrite cache ~key in
  let c1 = now () in
  let digest_s =
    match loaded with
    | Ok ctx ->
        bump "cache.probe_hits" 1.;
        let mem = Chimera_rt.load (Chimera_rt.create ctx) in
        let d0 = now () in
        ignore (Cache.digest_mem mem ~isa ~extra:tag);
        ignore (Cache.digest_mem mem ~isa ~extra:tag);
        now () -. d0
    | Error _ -> 0.
  in
  let q0 = now () in
  let tr0 = translate_ns () in
  let w0 = minor_words () in
  let s0 = now () in
  let r = try Some (Serve.execute ~cache ~isa ~mode ~tiered:true ~fuel job.bin) with _ -> None in
  let s1 = now () in
  let w1 = minor_words () in
  let tr = translate_ns () -. tr0 in
  let q1 = now () in
  let root = Spans.add sp ~parent:(-1) ~req ~name:"request" q0 q1 in
  let ex = Spans.add sp ~parent:root ~req ~name:"exec" s0 s1 in
  add_probe sp ~parent:ex ~req ~name:"cache" ~limit:s1 s0
    [ ("cache.rewrite", c1 -. c0); ("cache.digest", digest_s) ];
  ignore (Spans.add sp ~parent:ex ~req ~name:"machine.translate" (s1 -. tr) s1);
  bump "exec.alloc_words" (w1 -. w0);
  bump "runtime.lazy_rewrites" (float job.lazy_rewrites);
  match r with
  | Some (stop, retired, cycles, warm) ->
      { job; t_start = q0; t_end = q1; ok = check Plan.Steady job ~exit:(exit_of stop) ~retired ~cycles;
        retired; cycles; warm; wait_s = 0.; cpu = 0. }
  | None -> failed job q0 q1

(* Pooled requests: the client's submit-to-reply span, split by the
   outcome's own queue-wait and service times. *)
let pooled_spans sp samples =
  List.iteri
    (fun req s ->
      let root = Spans.add sp ~parent:(-1) ~req ~name:"request" s.t_start s.t_end in
      let served = s.t_start +. s.wait_s in
      ignore (Spans.add sp ~parent:root ~req ~name:"serve.queue_wait" s.t_start served);
      ignore (Spans.add sp ~parent:root ~req ~name:"exec" served s.t_end);
      bump "runtime.lazy_rewrites" (float s.job.lazy_rewrites))
    samples

let per_layer st ~reference ~traced ~spans ~snap ~gc ~server =
  let c name = float (Metrics.Snapshot.counter_value snap name) in
  let self = Spans.layer_self spans in
  let busy l = Option.value ~default:0. (Hashtbl.find_opt self l) *. 1000. in
  let dur name =
    Stats.sum (List.filter_map (fun (s : Spans.span) -> if s.name = name then Some (s.t1 -. s.t0) else None) spans)
  in
  let roots = Spans.roots spans in
  let root_s = Stats.sum (List.map (fun (s : Spans.span) -> s.t1 -. s.t0) roots) in
  let layers_s = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  let n = float (List.length traced.samples) in
  let retired = c "chimera_retired_total" and dispatches = c "chimera_dispatches_total" in
  let waits = Stats.sum (List.map (fun s -> s.wait_s) traced.samples) in
  let warm = float (List.length (List.filter (fun s -> s.warm) traced.samples)) in
  let m name unit_ value = { name; unit_; value; n = List.length traced.samples } in
  let cache_on = st.cache <> None in
  [ m "analysis.busy_ms" "ms" (busy "analysis");
    m "analysis.cfg_ms" "ms" (dur "analysis.cfg" *. 1000.);
    m "analysis.insns" "count" (got "analysis.insns");
    m "analysis.alloc_mwords" "Mwords" (got "analysis.alloc_words" /. 1e6);
    m "rewriter.busy_ms" "ms" (busy "rewriter");
    m "rewriter.sites" "count" (got "rewriter.sites");
    m "rewriter.exit_trap_frac" "frac" (Stats.ratio (got "rewriter.exit_trap") (got "rewriter.exits"));
    m "rewriter.alloc_mwords" "Mwords"
      (if got "rewrite.alloc_words" = 0. then 0.
       else (got "rewrite.alloc_words" -. got "analysis.alloc_words") /. 1e6);
    m "load.busy_ms" "ms" (busy "load");
    m "cache.busy_ms" "ms" (busy "cache");
    (* every request loads its rewrite context and seeds its plan once; a
       steady request's cache probe loads the context once more *)
    m "cache.rewrite_hit_rate" "frac"
      (if cache_on then Stats.ratio (c "chimera_cache_loads_total" -. warm -. got "cache.probe_hits") n
       else 0.);
    m "cache.plan_hit_rate" "frac" (if cache_on then Stats.ratio warm n else 0.);
    m "cache.dedup" "count" (c "chimera_cache_dedup_total");
    m "cache.bytes" "bytes" (match st.cache with Some ch -> float (snd (Cache.stat ch)) | None -> 0.);
    m "machine.translations" "count" (c "chimera_translations_total");
    m "machine.translate_ms" "ms"
      (match Metrics.Snapshot.histogram_value snap "chimera_translate_ns" with
      | Some h -> float h.Metrics.Snapshot.h_sum /. 1e6
      | None -> 0.);
    m "exec.busy_ms" "ms" (busy "exec");
    m "machine.retired" "count" retired;
    m "machine.chain_hit_rate" "frac" (Stats.ratio (c "chimera_chain_hits_total") dispatches);
    m "machine.side_exit_rate" "frac" (Stats.ratio (c "chimera_side_exits_total") dispatches);
    m "machine.tlb_hit_rate" "frac"
      (Stats.ratio (c "chimera_tlb_hits_total") (c "chimera_tlb_hits_total" +. c "chimera_tlb_misses_total"));
    m "machine.ic_hit_rate" "frac"
      (Stats.ratio (c "chimera_ic_hits_total") (c "chimera_ic_hits_total" +. c "chimera_ic_misses_total"));
    m "machine.alloc_words_per_kinst" "words/kinst"
      (Stats.ratio (if got "exec.alloc_words" > 0. then got "exec.alloc_words" else gc.Gc.minor_words)
         (retired /. 1000.));
    m "runtime.faults_recovered" "count" (c "chimera_faults_recovered_total");
    m "runtime.traps" "count" (c "chimera_traps_total");
    m "runtime.lazy_rewrites" "count" (got "runtime.lazy_rewrites");
    m "serve.queue_wait_ms" "ms" (waits *. 1000.);
    m "serve.service_ms" "ms" ((root_s -. waits) *. 1000.);
    m "sched.steals" "count" (c "chimera_sched_steals_total");
    m "sched.queue_peak" "count"
      (match server with Some s -> float (Serve.stats s).Serve.peak_depth | None -> 0.);
    m "gc.minor_mwords" "Mwords" (gc.Gc.minor_words /. 1e6);
    m "gc.promoted_mwords" "Mwords" (gc.Gc.promoted_words /. 1e6);
    m "gc.minor_collections" "count" (float gc.Gc.minor_collections);
    m "gc.major_collections" "count" (float gc.Gc.major_collections);
    m "trace.requests" "count" n;
    m "trace.wall_ms" "ms" (traced.wall *. 1000.);
    m "trace.layer_sum_frac" "frac" (Stats.ratio layers_s root_s);
    m "trace.overhead_frac" "frac" ((traced.wall /. reference.wall) -. 1.) ]

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  { b with
    Gc.minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections }

(* One untraced pass as the reference, then the same requests traced. On
   serve-mix the traced pass gets a fresh server that is shut down inside
   the window: a worker domain's allocations reach [Gc.quick_stat] only
   once it has been joined. *)
let traced_run a st ~spans_path =
  let w = a.workload in
  let jobs = List.hd st.passes in
  let reference = timed (fun () -> run_pass w ?cache:st.cache ?server:st.server jobs) in
  let server = if w = Plan.Serve_mix then (Option.iter Serve.shutdown st.server; Some (new_server st.cache)) else None in
  let st = { st with server } in
  let sp = Spans.create () in
  Metrics.enable ();
  let snap0 = Metrics.Snapshot.take () and gc0 = Gc.quick_stat () in
  let traced =
    timed (fun () ->
        match (w, st.cache, server) with
        | Plan.Deploy, _, _ -> List.mapi (fun req j -> traced_deploy sp ~req j) jobs
        | Plan.Steady, Some c, _ -> List.mapi (fun req j -> traced_steady sp ~req c j) jobs
        | _, _, Some s ->
            let samples = run_clients w s jobs in
            Serve.shutdown s;
            samples
        | _ -> assert false)
  in
  let gc = gc_delta gc0 (Gc.quick_stat ()) in
  let snap = Metrics.Snapshot.delta ~cur:(Metrics.Snapshot.take ()) ~prev:snap0 in
  Metrics.disable ();
  if w = Plan.Serve_mix then pooled_spans sp traced.samples;
  (* A traced deploy request takes Serve.execute's steps one by one; it
     must retire exactly what the untraced request did. *)
  let traced =
    if w <> Plan.Deploy then traced
    else
      { traced with
        samples =
          List.map2
            (fun r t -> if (r.retired, r.cycles) = (t.retired, t.cycles) then t else { t with ok = false })
            reference.samples traced.samples }
  in
  let spans = Spans.spans sp in
  Spans.write_jsonl spans_path spans;
  let metrics = per_layer st ~reference ~traced ~spans ~snap ~gc ~server in
  let samples = reference.samples @ traced.samples in
  (metrics, List.length samples, failures samples, { st with server = None })

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let a = parse_args () in
  let wname = Plan.workload_name a.workload in
  Printf.printf "stamp %s\n" (stamp ());
  Printf.printf "workload %s seed=%d seconds=%d trace=%b passes=%d\n%!" wname a.seed a.seconds a.trace
    (passes a.workload a.seconds);
  let out = ".perfbench" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let cache_dir = Filename.concat out (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> rm_rf cache_dir)
    (fun () ->
      (* Set up five times, from scratch each time; keep the last. *)
      let setups = if a.trace then 1 else 5 in
      (* host-speed scaling for the single-client workloads (calib.ml) *)
      let cal = if a.workload = Plan.Serve_mix then None else Some (Calib.create ()) in
      let rec go k times prev =
        Option.iter teardown prev;
        Option.iter Calib.mark cal;
        let t0 = now () in
        let st = setup a ~cache_dir in
        let times = (t0, now () -. t0) :: times in
        Option.iter Calib.mark cal;
        if k = 1 then (st, times) else go (k - 1) times (Some st)
      in
      let st, setup_s = go setups [] None in
      add_oracles a.workload st.jobs;
      if a.trace then begin
        let spans_path = Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" wname a.seed) in
        let metrics, attempted, failed, st = traced_run a st ~spans_path in
        teardown st;
        Printf.printf "spans %s\n" spans_path;
        print_result ~attempted ~failed metrics
      end
      else begin
        let passes =
          List.map
            (fun jobs ->
              measured cal (fun () -> run_pass a.workload ?cal ?cache:st.cache ?server:st.server jobs))
            st.passes
        in
        teardown st;
        List.iteri
          (fun i p ->
            Printf.printf "pass %d wall=%.4fs cpu=%.4fs requests=%d\n" i p.wall p.cpu
              (List.length p.samples))
          passes;
        let samples = List.concat_map (fun p -> p.samples) passes in
        (match Stats.highest_tail (List.length samples) with
        | Some p -> Printf.printf "tail highest qualifying percentile p%g\n" (float p /. 10.)
        | None -> ());
        let unscaled ~t0:_ ~t1:_ = 1. in
        let scale =
          match cal with
          | None -> unscaled
          | Some c ->
              let ks = Calib.kernel_times c in
              Printf.printf "calibration kernel median=%.4fs points=%d (reference %.4fs)\n"
                (Stats.median ks) (List.length ks) Calib.reference_s;
              List.iter
                (fun m -> Printf.printf "raw    %-28s %14.6f %s\n" m.name m.value m.unit_)
                (end_to_end a.workload ~scale:unscaled ~setup_s ~passes);
              Calib.factor c
        in
        print_result ~attempted:(List.length samples) ~failed:(failures samples)
          (end_to_end a.workload ~scale ~setup_s ~passes)
      end)
