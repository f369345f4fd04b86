(* Multi-tenant rewrite-and-execute server.

   Composes the pieces the repo already trusts individually into one
   long-running service: guests are admitted into a [Sched.Pool] of worker
   domains, each request rewrites (or cache-loads) its binary through CHBP,
   gets a private [Chimera_rt] — and therefore a private [Memory] view torn
   down with the request — and runs to completion on whichever worker
   picked it up. One shared persistent [Cache.t] spans every tenant, so a
   hot tenant's rewrite context and translation plan warm every later
   replica of the same digest, whichever tenant submits it.

   Determinism contract: a request's execution depends only on its binary,
   ISA, rewrite mode, engine configuration and fuel — never on scheduling,
   on the other tenants, or on cache temperature (a seeded plan replays
   decisions, it does not change them). [execute] builds each machine with
   its own [Engine.t], so a request retires bit-identically to its solo run by
   construction; the bench and the tenant-isolation property test check
   exactly that end to end.

   Domain discipline: [submit], [await], [drain], [shutdown] and the
   daemon belong to the owning domain (they emit Obs events); request
   bodies run on worker domains and touch only domain-safe telemetry
   (metrics shards). When tracing is enabled at [create] time the server
   degrades to inline execution on the owning domain — the ring sink is
   single-domain, and a traced run wants a deterministic event order more
   than it wants parallelism (the bench driver forces -j 1 under --trace
   for the same reason). *)

let default_fuel = 200_000_000

(* ------------------------------------------------------------------ *)
(* Requests and outcomes                                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_tenant : string;
  o_id : int;
  o_stop : string;  (* "exit:N" | "fault:..." | "fuel" | "error:..." *)
  o_exit : int option;
  o_retired : int;
  o_cycles : int;
  o_warm : bool;  (* translation plan seeded from the shared cache *)
  o_wait_us : int;  (* admission -> first instruction *)
  o_latency_us : int;  (* admission -> completion *)
}

type stats = {
  admitted : int;
  rejected : int;
  completed : int;
  queue_depth : int;
  peak_depth : int;
}

type tenant_stat = {
  ts_tenant : string;
  ts_requests : int;
  ts_retired : int;
  ts_cycles : int;
  ts_warm : int;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_admit =
  Metrics.counter ~help:"Serve requests admitted into the pool"
    "chimera_serve_admitted_total"

let m_done =
  Metrics.counter ~help:"Serve requests completed"
    "chimera_serve_done_total"

let m_reject =
  Metrics.counter ~help:"Serve requests refused at admission"
    "chimera_serve_rejected_total"

let m_latency =
  Metrics.histogram ~help:"Serve request latency, admission to completion (us)"
    "chimera_serve_latency_us"

(* Per-tenant retired counters, registered lazily under a sanitized name.
   The registry is name-keyed and registration is idempotent, so replicas
   of one tenant share a counter. *)
let tenant_counter =
  let tbl : (string, Metrics.counter) Hashtbl.t = Hashtbl.create 16 in
  let mu = Mutex.create () in
  fun tenant ->
    Mutex.lock mu;
    let c =
      match Hashtbl.find_opt tbl tenant with
      | Some c -> c
      | None ->
          let sane =
            String.map
              (fun ch ->
                match ch with
                | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch
                | _ -> '_')
              tenant
          in
          let c =
            Metrics.counter
              ~help:(Printf.sprintf "Instructions retired serving tenant %s" tenant)
              (Printf.sprintf "chimera_serve_tenant_%s_retired_total" sane)
          in
          Hashtbl.add tbl tenant c;
          c
    in
    Mutex.unlock mu;
    c

(* ------------------------------------------------------------------ *)
(* One request, end to end                                             *)
(* ------------------------------------------------------------------ *)

let mode_tag = function
  | Chbp.Downgrade -> "down"
  | Chbp.Upgrade -> "up"
  | Chbp.Empty -> "empty"

(* A request's engine: tiered or untiered, recording whenever plans are
   stored. *)
let engine ~tiered ~record =
  if tiered then Engine.Tiered { record } else Engine.Untiered { record }

(* The configuration tag folded into every cache digest: two requests
   share an artifact only when the binary, ISA (already in the digest),
   rewrite mode and engine all agree. *)
let cfg_tag ~mode ~tiered =
  Printf.sprintf "serve|%s|%s" (mode_tag mode)
    (Engine.tag (engine ~tiered ~record:false))

(* Run one guest on the calling domain: rewrite-or-load, fresh runtime and
   memory view on the request's engine, optional plan seed/store against
   the shared cache. This is both the worker body and the solo oracle — the
   differential tests compare pool runs against [execute] with no cache on
   the main domain. *)
let execute ?cache ~isa ~mode ~tiered ~fuel bin =
  let tag = cfg_tag ~mode ~tiered in
  let options = Chbp.default_options mode in
  let ctx =
    match cache with
    | None -> Chbp.rewrite ~options bin
    | Some c -> (
        let key = Cache.digest_bin bin ~extra:tag in
        match Cache.load_rewrite c ~key with
        | Ok ctx -> ctx
        | Error _ ->
            let ctx = Chbp.rewrite ~options bin in
            Cache.store_rewrite c ~key ctx;
            ctx)
  in
  let rt = Chimera_rt.create ctx in
  let engine = engine ~tiered ~record:(cache <> None) in
  let m = Machine.create ~engine ~mem:(Chimera_rt.load rt) ~isa () in
  let warm = ref false in
  (match cache with
  | None -> ()
  | Some c ->
      let key = Cache.digest_mem (Machine.mem m) ~isa ~extra:tag in
      match Cache.seed_plan c ~key m with Ok _ -> warm := true | Error _ -> ());
  let stop = Chimera_rt.run rt ~fuel m in
  (match cache with
  | None -> ()
  | Some c ->
      (* Store under the digest of the memory as the run left it: an SMC
         guest stores under a key no pristine load computes (unreachable,
         not wrong), exactly like the bench driver's plan hooks. *)
      let key = Cache.digest_mem (Machine.mem m) ~isa ~extra:tag in
      Cache.store_plan c ~key m);
  (stop, Machine.retired m, Machine.cycles m, !warm)

let stop_strings = function
  | Machine.Exited c -> (Printf.sprintf "exit:%d" c, Some c)
  | Machine.Faulted f -> ("fault:" ^ Fault.to_string f, None)
  | Machine.Fuel_exhausted -> ("fuel", None)

(* ------------------------------------------------------------------ *)
(* The server                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  pool : Sched.Pool.t option;  (* None: inline (traced) execution *)
  cache : Cache.t option;
  max_queue : int option;
  mu : Mutex.t;
  done_c : Condition.t;
  mutable outcomes : outcome list;  (* reverse completion order *)
  mutable next_id : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable completed : int;
  announced : (int, unit) Hashtbl.t;  (* Serve_done already emitted *)
}

let create ?cache ?max_queue ?(steal = true) ~base_workers ~ext_workers () =
  let pool =
    (* Tracing pins execution to the owning domain: the Obs ring is
       single-domain and event order should be reproducible. *)
    if !Obs.enabled then None
    else Some (Sched.Pool.create ~steal ~base:base_workers ~ext:ext_workers ())
  in
  {
    pool;
    cache;
    max_queue;
    mu = Mutex.create ();
    done_c = Condition.create ();
    outcomes = [];
    next_id = 0;
    admitted = 0;
    rejected = 0;
    completed = 0;
    announced = Hashtbl.create 64;
  }

let queue_depth t =
  match t.pool with Some p -> Sched.Pool.queue_depth p | None -> 0

let peak_depth t =
  match t.pool with Some p -> Sched.Pool.peak_depth p | None -> 0

let finish t ~tenant ~id ~t_admit ~t_start ~stop:(s, exit_code) ~retired
    ~cycles ~warm =
  let t_end = Unix.gettimeofday () in
  let o =
    {
      o_tenant = tenant;
      o_id = id;
      o_stop = s;
      o_exit = exit_code;
      o_retired = retired;
      o_cycles = cycles;
      o_warm = warm;
      o_wait_us = int_of_float ((t_start -. t_admit) *. 1e6);
      o_latency_us = int_of_float ((t_end -. t_admit) *. 1e6);
    }
  in
  if !Metrics.enabled then begin
    Metrics.incr m_done;
    Metrics.add (tenant_counter tenant) retired;
    Metrics.observe m_latency o.o_latency_us
  end;
  Mutex.lock t.mu;
  t.outcomes <- o :: t.outcomes;
  t.completed <- t.completed + 1;
  Condition.broadcast t.done_c;
  Mutex.unlock t.mu

let submit t ~tenant ?(prefer_ext = false) ?(isa = Ext.rv64gc)
    ?(mode = Chbp.Downgrade) ?(tiered = false) ?(fuel = default_fuel) bin =
  let id = t.next_id in
  t.next_id <- id + 1;
  let saturated =
    match t.max_queue with Some cap -> queue_depth t >= cap | None -> false
  in
  if saturated then begin
    t.rejected <- t.rejected + 1;
    if !Metrics.enabled then Metrics.incr m_reject;
    if !Obs.enabled then
      Obs.emit (Obs.Serve_reject { tenant; id; reason = "saturated" });
    Error `Saturated
  end
  else begin
    t.admitted <- t.admitted + 1;
    if !Metrics.enabled then Metrics.incr m_admit;
    if !Obs.enabled then Obs.emit (Obs.Serve_admit { tenant; id });
    let t_admit = Unix.gettimeofday () in
    let body _cls =
      let t_start = Unix.gettimeofday () in
      match execute ?cache:t.cache ~isa ~mode ~tiered ~fuel bin with
      | stop, retired, cycles, warm ->
          finish t ~tenant ~id ~t_admit ~t_start ~stop:(stop_strings stop)
            ~retired ~cycles ~warm
      | exception e ->
          (* fold the failure into the outcome rather than losing the
             request: the pool would swallow the exception anyway *)
          finish t ~tenant ~id ~t_admit ~t_start
            ~stop:("error:" ^ Printexc.to_string e, None)
            ~retired:0 ~cycles:0 ~warm:false
    in
    (match t.pool with
    | Some p -> Sched.Pool.submit p ~prefer_ext body
    | None -> body Sched.Base);
    Ok id
  end

(* Serve_done events carry deterministic fields only and are emitted from
   the owning domain, in id order, once the outcome exists — so a traced
   serve run produces the same event stream every time. *)
let announce t =
  if !Obs.enabled then begin
    let os =
      List.sort (fun a b -> compare a.o_id b.o_id) t.outcomes
      |> List.filter (fun o -> not (Hashtbl.mem t.announced o.o_id))
    in
    List.iter
      (fun o ->
        Hashtbl.replace t.announced o.o_id ();
        Obs.emit
          (Obs.Serve_done
             { tenant = o.o_tenant; id = o.o_id; retired = o.o_retired }))
      os
  end

let await t id =
  let rec find () =
    match List.find_opt (fun o -> o.o_id = id) t.outcomes with
    | Some o -> o
    | None ->
        Condition.wait t.done_c t.mu;
        find ()
  in
  Mutex.lock t.mu;
  let o = find () in
  Mutex.unlock t.mu;
  announce t;
  o

let drain t =
  (match t.pool with Some p -> Sched.Pool.drain p | None -> ());
  announce t

let shutdown t =
  drain t;
  match t.pool with Some p -> Sched.Pool.shutdown p | None -> ()

let outcomes t =
  Mutex.lock t.mu;
  let os = t.outcomes in
  Mutex.unlock t.mu;
  List.sort (fun a b -> compare a.o_id b.o_id) os

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      admitted = t.admitted;
      rejected = t.rejected;
      completed = t.completed;
      queue_depth = 0;
      peak_depth = 0;
    }
  in
  Mutex.unlock t.mu;
  { s with queue_depth = queue_depth t; peak_depth = peak_depth t }

let tenant_stats t =
  let tbl : (string, tenant_stat ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun o ->
      match Hashtbl.find_opt tbl o.o_tenant with
      | Some r ->
          r :=
            {
              !r with
              ts_requests = !r.ts_requests + 1;
              ts_retired = !r.ts_retired + o.o_retired;
              ts_cycles = !r.ts_cycles + o.o_cycles;
              ts_warm = (!r.ts_warm + if o.o_warm then 1 else 0);
            }
      | None ->
          Hashtbl.add tbl o.o_tenant
            (ref
               {
                 ts_tenant = o.o_tenant;
                 ts_requests = 1;
                 ts_retired = o.o_retired;
                 ts_cycles = o.o_cycles;
                 ts_warm = (if o.o_warm then 1 else 0);
               }))
    (outcomes t);
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> compare a.ts_tenant b.ts_tenant)

(* ------------------------------------------------------------------ *)
(* Unix-domain-socket daemon                                           *)
(* ------------------------------------------------------------------ *)

module Daemon = struct
  (* One-line text protocol, one client at a time, synchronous replies:

       RUN <tenant> <file.self>     submit a checked-in SELF binary
       SPEC <tenant> <profile>      submit a Specgen profile by name
       STAT                         admission counters and queue depth
       QUIT                         close the listener

     Replies are "OK ..." or "ERR <reason>". RUN/SPEC block until the
     request completes (the pool keeps serving other tenants meanwhile)
     and report the outcome inline. *)

  let run_reply t ~tenant ~isa ~tiered load =
    match load () with
    | exception e ->
        Printf.sprintf "ERR load: %s" (Printexc.to_string e)
    | bin -> (
        match submit t ~tenant ~isa ~tiered bin with
        | Error `Saturated -> "ERR saturated"
        | Ok id ->
            let o = await t id in
            Printf.sprintf
              "OK id=%d stop=%s retired=%d cycles=%d warm=%b latency_us=%d" o.o_id
              o.o_stop o.o_retired o.o_cycles o.o_warm o.o_latency_us)

  let handle t ~isa ~tiered line =
    let words =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun s -> s <> "")
    in
    match words with
    | [ "QUIT" ] -> `Quit
    | [ "STAT" ] ->
        let s = stats t in
        `Reply
          (Printf.sprintf "OK admitted=%d done=%d rejected=%d depth=%d peak=%d"
             s.admitted s.completed s.rejected s.queue_depth s.peak_depth)
    | [ "RUN"; tenant; path ] ->
        `Ran (run_reply t ~tenant ~isa ~tiered (fun () -> Binfile.load_file path))
    | [ "SPEC"; tenant; profile ] ->
        `Ran
          (run_reply t ~tenant ~isa ~tiered (fun () ->
               Specgen.build (Specgen.find profile)))
    | _ -> `Reply "ERR usage: RUN <tenant> <file.self> | SPEC <tenant> <profile> | STAT | QUIT"

  let listen t ~path ?(isa = Ext.rv64gc) ?(tiered = false) ?max_requests () =
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 16;
        let served = ref 0 and quit = ref false in
        let room () =
          match max_requests with Some m -> !served < m | None -> true
        in
        while (not !quit) && room () do
          let fd, _ = Unix.accept sock in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          (try
             let conn_open = ref true in
             while !conn_open && (not !quit) && room () do
               match input_line ic with
               | exception End_of_file -> conn_open := false
               | line -> (
                   match handle t ~isa ~tiered line with
                   | `Quit ->
                       output_string oc "OK bye\n";
                       flush oc;
                       quit := true
                   | `Reply r ->
                       output_string oc (r ^ "\n");
                       flush oc
                   | `Ran r ->
                       incr served;
                       output_string oc (r ^ "\n");
                       flush oc)
             done
           with Sys_error _ | Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        done)
end
