type event =
  | Meta of { version : int }
  | Phase_begin of { name : string }
  | Phase_end of { name : string }
  | Tb_compile of { entry : int; body : int }
  | Tb_hit of { entry : int; body : int }
  | Tb_invalidate of { addr : int; len : int }
  | Tb_chain of { src : int; dst : int }
  | Tb_superblock of {
      entry : int;
      insts : int;
      pages : int;
      jumps : int;
      exits : int;
      fused : int;
    }
  | Tb_side_exit of { entry : int; target : int }
  | Tb_fuse of { pc : int; kind : string }
  | Tb_ir of {
      entry : int;
      units : int;
      folded : int;
      dead : int;
      pc_elided : int;
      tlb_elided : int;
      cached : int;
    }
  | Tier_promote of { entry : int; tier : int; hot : int }
  | Tb_recompile of { entry : int; hot : int; exits : int; relaid : int }
  | Ic_hit of { site : int; target : int }
  | Ic_miss of { site : int; target : int }
  | Ic_mega of { site : int; targets : int }
  | Tlb_flush of { addr : int; len : int }
  | Icache_burst of { addr : int; misses : int }
  | Fault_raised of { pc : int; cause : string }
  | Fault_recovered of { site : int; redirect : int; cause : string }
  | Trap_taken of { site : int; target : int }
  | Check_taken of { site : int; target : int }
  | Lazy_discovered of { root : int; patches : int }
  | Signal_delivered of { pc : int; gp_restored : bool }
  | Sched_steal of { core : int; cls : string; task : int }
  | Sched_migrate of { task : int; cycles : int }
  | Rw_site of { site : int; style : string }
  | Rw_exit of { site : int; kind : string }
  | Smile_write of { pc : int; target : int }
  | Table_add of { key : int; redirect : int; table : string }
  | Tb_profile of {
      entry : int;
      body : int;
      hits : int;
      retired : int;
      loads : int;
      stores : int;
      branches : int;
      alu : int;
      vector : int;
      compressed : int;
      penalty : int;
      tlb : int;
      icache : int;
      faults : int;
      recovered : int;
      traps : int;
    }
  | Cache_load of { key : string; entries : int; bytes : int }
  | Cache_store of { key : string; entries : int; bytes : int }
  | Cache_reject of { key : string; reason : string }
  | Health_ok of { rule : string }
  | Health_degraded of { rule : string; reason : string }
  | Serve_admit of { tenant : string; id : int }
  | Serve_done of { tenant : string; id : int; retired : int }
  | Serve_reject of { tenant : string; id : int; reason : string }

let schema_version = 8

(* Ring sink: a fixed array filled front-to-back; when full it is handed to
   the sink and refilled from index 0. "Ring" in the double-buffer-less
   sense — events never overwrite unflushed ones.

   The ring, its counters and the sink are process globals owned by one
   domain: the one that calls [enable]. Every enabler keeps emission on it
   — the bench's --trace forces -j 1, [Serve.create] runs requests inline
   instead of on a pool while tracing, and the CLI's --trace and
   --capture run one machine — so while [enabled] is set no other domain
   emits. With it clear, [emit] only reads the flag. *)

let ring_capacity = 4096
let dummy = Phase_begin { name = "" }
let ring = Array.make ring_capacity dummy
let ring_len = ref 0
let emitted = ref 0
let sink : (event array -> int -> unit) ref = ref (fun _ _ -> ())
let enabled = ref false

(* Events a bounded sink discarded (see [enable_memory]). A channel sink
   never drops, so a complete trace run reports 0 here — the trace-exit
   validator and bench [--json] surface the total either way, so loss is
   visible instead of silent. *)
let dropped = ref 0

let flush () =
  if !ring_len > 0 then begin
    !sink ring !ring_len;
    (* drop references so flushed events can be collected *)
    Array.fill ring 0 !ring_len dummy;
    ring_len := 0
  end

let emit ev =
  if !enabled then begin
    if !ring_len = ring_capacity then flush ();
    ring.(!ring_len) <- ev;
    incr ring_len;
    incr emitted
  end

let enable ~sink:s =
  sink := s;
  ring_len := 0;
  emitted := 0;
  dropped := 0;
  enabled := true;
  emit (Meta { version = schema_version })

let disable () =
  if !enabled then begin
    flush ();
    enabled := false;
    sink := (fun _ _ -> ())
  end

let events_emitted () = !emitted
let events_dropped () = !dropped

(* Bounded in-memory capture, for always-on use (the metrics CLI, a
   serving daemon's post-mortem buffer): keep only the most recent
   [capacity] events. When the buffer wraps, the overwritten events are
   counted in [dropped] rather than silently lost. The buffer is filled by
   [flush], so it has the ring's owner: the domain that enabled it. *)

let mem_buf : event array ref = ref [||]
let mem_next = ref 0
let mem_count = ref 0

let memory_sink events len =
  let b = !mem_buf in
  let cap = Array.length b in
  if cap > 0 then
    for k = 0 to len - 1 do
      if !mem_count >= cap then incr dropped;
      b.(!mem_next) <- events.(k);
      mem_next := (!mem_next + 1) mod cap;
      incr mem_count
    done

let enable_memory ?(capacity = ring_capacity) () =
  if capacity < 1 then invalid_arg "Obs.enable_memory: capacity < 1";
  mem_buf := Array.make capacity dummy;
  mem_next := 0;
  mem_count := 0;
  enable ~sink:memory_sink

let recent () =
  if !enabled then flush ();
  let b = !mem_buf in
  let cap = Array.length b in
  if cap = 0 then []
  else begin
    let n = min !mem_count cap in
    let start = if !mem_count <= cap then 0 else !mem_next in
    List.init n (fun k -> b.((start + k) mod cap))
  end

module Json = struct
  (* The schema is flat: {"ev":"<kind>", <field>:<int|string|bool>, ...}.
     Strings are drawn from fixed enumerations (causes, styles, table
     names) plus free-form phase names, which the writer escapes. *)

  let buf = Buffer.create 128

  let esc s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_line ev =
    Buffer.clear buf;
    let obj kind fields =
      Buffer.add_string buf "{\"ev\":\"";
      Buffer.add_string buf kind;
      Buffer.add_char buf '"';
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf ",\"";
          Buffer.add_string buf k;
          Buffer.add_string buf "\":";
          Buffer.add_string buf v)
        fields;
      Buffer.add_char buf '}'
    in
    let i n = string_of_int n in
    let s v = "\"" ^ esc v ^ "\"" in
    let b v = if v then "true" else "false" in
    (match ev with
    | Meta { version } -> obj "meta" [ ("version", i version) ]
    | Phase_begin { name } -> obj "phase_begin" [ ("name", s name) ]
    | Phase_end { name } -> obj "phase_end" [ ("name", s name) ]
    | Tb_compile { entry; body } ->
        obj "tb_compile" [ ("entry", i entry); ("body", i body) ]
    | Tb_hit { entry; body } ->
        obj "tb_hit" [ ("entry", i entry); ("body", i body) ]
    | Tb_invalidate { addr; len } ->
        obj "tb_invalidate" [ ("addr", i addr); ("len", i len) ]
    | Tb_chain { src; dst } -> obj "tb_chain" [ ("src", i src); ("dst", i dst) ]
    | Tb_superblock { entry; insts; pages; jumps; exits; fused } ->
        obj "tb_superblock"
          [
            ("entry", i entry);
            ("insts", i insts);
            ("pages", i pages);
            ("jumps", i jumps);
            ("exits", i exits);
            ("fused", i fused);
          ]
    | Tb_side_exit { entry; target } ->
        obj "tb_side_exit" [ ("entry", i entry); ("target", i target) ]
    | Tb_fuse { pc; kind } -> obj "tb_fuse" [ ("pc", i pc); ("kind", s kind) ]
    | Tb_ir { entry; units; folded; dead; pc_elided; tlb_elided; cached } ->
        obj "tb_ir"
          [
            ("entry", i entry);
            ("units", i units);
            ("folded", i folded);
            ("dead", i dead);
            ("pc_elided", i pc_elided);
            ("tlb_elided", i tlb_elided);
            ("cached", i cached);
          ]
    | Tier_promote { entry; tier; hot } ->
        obj "tier_promote"
          [ ("entry", i entry); ("tier", i tier); ("hot", i hot) ]
    | Tb_recompile { entry; hot; exits; relaid } ->
        obj "tb_recompile"
          [
            ("entry", i entry);
            ("hot", i hot);
            ("exits", i exits);
            ("relaid", i relaid);
          ]
    | Ic_hit { site; target } ->
        obj "ic_hit" [ ("site", i site); ("target", i target) ]
    | Ic_miss { site; target } ->
        obj "ic_miss" [ ("site", i site); ("target", i target) ]
    | Ic_mega { site; targets } ->
        obj "ic_mega" [ ("site", i site); ("targets", i targets) ]
    | Tlb_flush { addr; len } ->
        obj "tlb_flush" [ ("addr", i addr); ("len", i len) ]
    | Icache_burst { addr; misses } ->
        obj "icache_burst" [ ("addr", i addr); ("misses", i misses) ]
    | Fault_raised { pc; cause } ->
        obj "fault_raised" [ ("pc", i pc); ("cause", s cause) ]
    | Fault_recovered { site; redirect; cause } ->
        obj "fault_recovered"
          [ ("site", i site); ("redirect", i redirect); ("cause", s cause) ]
    | Trap_taken { site; target } ->
        obj "trap_taken" [ ("site", i site); ("target", i target) ]
    | Check_taken { site; target } ->
        obj "check_taken" [ ("site", i site); ("target", i target) ]
    | Lazy_discovered { root; patches } ->
        obj "lazy_discovered" [ ("root", i root); ("patches", i patches) ]
    | Signal_delivered { pc; gp_restored } ->
        obj "signal_delivered" [ ("pc", i pc); ("gp_restored", b gp_restored) ]
    | Sched_steal { core; cls; task } ->
        obj "sched_steal" [ ("core", i core); ("cls", s cls); ("task", i task) ]
    | Sched_migrate { task; cycles } ->
        obj "sched_migrate" [ ("task", i task); ("cycles", i cycles) ]
    | Rw_site { site; style } ->
        obj "rw_site" [ ("site", i site); ("style", s style) ]
    | Rw_exit { site; kind } ->
        obj "rw_exit" [ ("site", i site); ("kind", s kind) ]
    | Smile_write { pc; target } ->
        obj "smile_write" [ ("pc", i pc); ("target", i target) ]
    | Table_add { key; redirect; table } ->
        obj "table_add"
          [ ("key", i key); ("redirect", i redirect); ("table", s table) ]
    | Tb_profile
        {
          entry;
          body;
          hits;
          retired;
          loads;
          stores;
          branches;
          alu;
          vector;
          compressed;
          penalty;
          tlb;
          icache;
          faults;
          recovered;
          traps;
        } ->
        obj "tb_profile"
          [
            ("entry", i entry);
            ("body", i body);
            ("hits", i hits);
            ("retired", i retired);
            ("loads", i loads);
            ("stores", i stores);
            ("branches", i branches);
            ("alu", i alu);
            ("vector", i vector);
            ("compressed", i compressed);
            ("penalty", i penalty);
            ("tlb", i tlb);
            ("icache", i icache);
            ("faults", i faults);
            ("recovered", i recovered);
            ("traps", i traps);
          ]
    | Cache_load { key; entries; bytes } ->
        obj "cache_load"
          [ ("key", s key); ("entries", i entries); ("bytes", i bytes) ]
    | Cache_store { key; entries; bytes } ->
        obj "cache_store"
          [ ("key", s key); ("entries", i entries); ("bytes", i bytes) ]
    | Cache_reject { key; reason } ->
        obj "cache_reject" [ ("key", s key); ("reason", s reason) ]
    | Health_ok { rule } -> obj "health_ok" [ ("rule", s rule) ]
    | Health_degraded { rule; reason } ->
        obj "health_degraded" [ ("rule", s rule); ("reason", s reason) ]
    | Serve_admit { tenant; id } ->
        obj "serve_admit" [ ("tenant", s tenant); ("id", i id) ]
    | Serve_done { tenant; id; retired } ->
        obj "serve_done"
          [ ("tenant", s tenant); ("id", i id); ("retired", i retired) ]
    | Serve_reject { tenant; id; reason } ->
        obj "serve_reject"
          [ ("tenant", s tenant); ("id", i id); ("reason", s reason) ]);
    Buffer.contents buf

  (* A strict recursive-descent parser for exactly the flat objects the
     writer produces (hand-rolled: the environment has no JSON library).
     Whitespace between tokens is tolerated so hand-edited traces load. *)

  type value = I of int | S of string | B of bool

  exception Bad

  let parse_fields line =
    let n = String.length line in
    let pos = ref 0 in
    let peek () = if !pos < n then line.[!pos] else raise Bad in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (peek () = ' ' || peek () = '\t') do
        advance ()
      done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then raise Bad;
      advance ()
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        let c = peek () in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
            let e = peek () in
            advance ();
            (match e with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                if !pos + 4 > n then raise Bad;
                let hex = String.sub line !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> raise Bad
                in
                if code > 0xff then raise Bad;
                Buffer.add_char b (Char.chr code)
            | _ -> raise Bad);
            go ()
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let value () =
      skip_ws ();
      match peek () with
      | '"' -> S (string_lit ())
      | 't' ->
          if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
            pos := !pos + 4;
            B true
          end
          else raise Bad
      | 'f' ->
          if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
            pos := !pos + 5;
            B false
          end
          else raise Bad
      | '-' | '0' .. '9' ->
          let start = !pos in
          if peek () = '-' then advance ();
          while !pos < n && peek () >= '0' && peek () <= '9' do
            advance ()
          done;
          if !pos = start then raise Bad;
          I (int_of_string (String.sub line start (!pos - start)))
      | _ -> raise Bad
    in
    expect '{';
    let fields = ref [] in
    skip_ws ();
    if peek () = '}' then advance ()
    else begin
      let rec members () =
        let k = string_lit () in
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | ',' -> advance (); skip_ws (); members ()
        | '}' -> advance ()
        | _ -> raise Bad
      in
      members ()
    end;
    skip_ws ();
    if !pos <> n then raise Bad;
    List.rev !fields

  let of_line line =
    match parse_fields line with
    | exception Bad -> None
    | exception _ -> None
    | ("ev", S kind) :: fields -> (
        let geti k = match List.assoc k fields with I v -> v | _ -> raise Bad in
        let gets k = match List.assoc k fields with S v -> v | _ -> raise Bad in
        let getb k = match List.assoc k fields with B v -> v | _ -> raise Bad in
        let arity n = if List.length fields <> n then raise Bad in
        match
          (match kind with
          | "meta" ->
              arity 1;
              let version = geti "version" in
              (* A trace written under another schema must not parse
                 silently: field meanings can differ between versions.
                 [read_file] turns this rejection into a clear error. *)
              if version <> schema_version then raise Bad;
              Meta { version }
          | "phase_begin" -> arity 1; Phase_begin { name = gets "name" }
          | "phase_end" -> arity 1; Phase_end { name = gets "name" }
          | "tb_compile" ->
              arity 2;
              Tb_compile { entry = geti "entry"; body = geti "body" }
          | "tb_hit" -> arity 2; Tb_hit { entry = geti "entry"; body = geti "body" }
          | "tb_invalidate" ->
              arity 2;
              Tb_invalidate { addr = geti "addr"; len = geti "len" }
          | "tb_chain" -> arity 2; Tb_chain { src = geti "src"; dst = geti "dst" }
          | "tb_superblock" ->
              arity 6;
              Tb_superblock
                {
                  entry = geti "entry";
                  insts = geti "insts";
                  pages = geti "pages";
                  jumps = geti "jumps";
                  exits = geti "exits";
                  fused = geti "fused";
                }
          | "tb_side_exit" ->
              arity 2;
              Tb_side_exit { entry = geti "entry"; target = geti "target" }
          | "tb_fuse" -> arity 2; Tb_fuse { pc = geti "pc"; kind = gets "kind" }
          | "tb_ir" ->
              arity 7;
              Tb_ir
                {
                  entry = geti "entry";
                  units = geti "units";
                  folded = geti "folded";
                  dead = geti "dead";
                  pc_elided = geti "pc_elided";
                  tlb_elided = geti "tlb_elided";
                  cached = geti "cached";
                }
          | "tier_promote" ->
              arity 3;
              Tier_promote
                { entry = geti "entry"; tier = geti "tier"; hot = geti "hot" }
          | "tb_recompile" ->
              arity 4;
              Tb_recompile
                {
                  entry = geti "entry";
                  hot = geti "hot";
                  exits = geti "exits";
                  relaid = geti "relaid";
                }
          | "ic_hit" ->
              arity 2;
              Ic_hit { site = geti "site"; target = geti "target" }
          | "ic_miss" ->
              arity 2;
              Ic_miss { site = geti "site"; target = geti "target" }
          | "ic_mega" ->
              arity 2;
              Ic_mega { site = geti "site"; targets = geti "targets" }
          | "tlb_flush" ->
              arity 2;
              Tlb_flush { addr = geti "addr"; len = geti "len" }
          | "icache_burst" ->
              arity 2;
              Icache_burst { addr = geti "addr"; misses = geti "misses" }
          | "fault_raised" ->
              arity 2;
              Fault_raised { pc = geti "pc"; cause = gets "cause" }
          | "fault_recovered" ->
              arity 3;
              Fault_recovered
                {
                  site = geti "site";
                  redirect = geti "redirect";
                  cause = gets "cause";
                }
          | "trap_taken" ->
              arity 2;
              Trap_taken { site = geti "site"; target = geti "target" }
          | "check_taken" ->
              arity 2;
              Check_taken { site = geti "site"; target = geti "target" }
          | "lazy_discovered" ->
              arity 2;
              Lazy_discovered { root = geti "root"; patches = geti "patches" }
          | "signal_delivered" ->
              arity 2;
              Signal_delivered
                { pc = geti "pc"; gp_restored = getb "gp_restored" }
          | "sched_steal" ->
              arity 3;
              Sched_steal
                { core = geti "core"; cls = gets "cls"; task = geti "task" }
          | "sched_migrate" ->
              arity 2;
              Sched_migrate { task = geti "task"; cycles = geti "cycles" }
          | "rw_site" ->
              arity 2;
              Rw_site { site = geti "site"; style = gets "style" }
          | "rw_exit" -> arity 2; Rw_exit { site = geti "site"; kind = gets "kind" }
          | "smile_write" ->
              arity 2;
              Smile_write { pc = geti "pc"; target = geti "target" }
          | "table_add" ->
              arity 3;
              Table_add
                {
                  key = geti "key";
                  redirect = geti "redirect";
                  table = gets "table";
                }
          | "tb_profile" ->
              arity 16;
              Tb_profile
                {
                  entry = geti "entry";
                  body = geti "body";
                  hits = geti "hits";
                  retired = geti "retired";
                  loads = geti "loads";
                  stores = geti "stores";
                  branches = geti "branches";
                  alu = geti "alu";
                  vector = geti "vector";
                  compressed = geti "compressed";
                  penalty = geti "penalty";
                  tlb = geti "tlb";
                  icache = geti "icache";
                  faults = geti "faults";
                  recovered = geti "recovered";
                  traps = geti "traps";
                }
          | "cache_load" ->
              arity 3;
              Cache_load
                { key = gets "key"; entries = geti "entries"; bytes = geti "bytes" }
          | "cache_store" ->
              arity 3;
              Cache_store
                { key = gets "key"; entries = geti "entries"; bytes = geti "bytes" }
          | "cache_reject" ->
              arity 2;
              Cache_reject { key = gets "key"; reason = gets "reason" }
          | "health_ok" ->
              arity 1;
              Health_ok { rule = gets "rule" }
          | "health_degraded" ->
              arity 2;
              Health_degraded { rule = gets "rule"; reason = gets "reason" }
          | "serve_admit" ->
              arity 2;
              Serve_admit { tenant = gets "tenant"; id = geti "id" }
          | "serve_done" ->
              arity 3;
              Serve_done
                { tenant = gets "tenant"; id = geti "id"; retired = geti "retired" }
          | "serve_reject" ->
              arity 3;
              Serve_reject
                { tenant = gets "tenant"; id = geti "id"; reason = gets "reason" }
          | _ -> raise Bad)
        with
        | ev -> Some ev
        | exception Bad -> None
        | exception Not_found -> None)
    | _ -> None

  let channel_sink oc events len =
    for k = 0 to len - 1 do
      output_string oc (to_line events.(k));
      output_char oc '\n'
    done

  (* Distinguish "syntactically fine meta line under another schema" from
     generic corruption, so stale traces get an actionable error. *)
  let stale_meta_version line =
    match parse_fields line with
    | exception _ -> None
    | [ ("ev", S "meta"); ("version", I v) ] when v <> schema_version -> Some v
    | _ -> None

  let read_file path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
              match of_line line with
              | Some ev -> go (lineno + 1) (ev :: acc)
              | None -> (
                  match stale_meta_version line with
                  | Some v ->
                      failwith
                        (Printf.sprintf
                           "%s:%d: trace schema version %d, this build reads \
                            version %d — regenerate the trace"
                           path lineno v schema_version)
                  | None ->
                      failwith
                        (Printf.sprintf "%s:%d: malformed trace line: %s" path
                           lineno line)))
        in
        go 1 [])
end

module Agg = struct
  type totals = {
    mutable faults_raised : int;
    mutable faults_recovered : int;
    mutable traps : int;
    mutable checks : int;
    mutable lazies : int;
    mutable tb_compiles : int;
    mutable tb_hits : int;
    mutable tb_invalidations : int;
    mutable icache_bursts : int;
    mutable steals : int;
    mutable migrations : int;
    mutable signals : int;
    mutable tier_promotions : int;
    mutable recompiles : int;
    mutable ic_hits : int;
    mutable ic_misses : int;
    mutable ic_megamorphic : int;
  }

  type t = {
    tot : totals;
    sites : (int, int ref) Hashtbl.t;
    mutable bodies : int list;
    mutable profiles : event list;  (* Tb_profile events, reverse order *)
  }

  let create () =
    {
      tot =
        {
          faults_raised = 0;
          faults_recovered = 0;
          traps = 0;
          checks = 0;
          lazies = 0;
          tb_compiles = 0;
          tb_hits = 0;
          tb_invalidations = 0;
          icache_bursts = 0;
          steals = 0;
          migrations = 0;
          signals = 0;
          tier_promotions = 0;
          recompiles = 0;
          ic_hits = 0;
          ic_misses = 0;
          ic_megamorphic = 0;
        };
      sites = Hashtbl.create 64;
      bodies = [];
      profiles = [];
    }

  let site t s =
    match Hashtbl.find_opt t.sites s with
    | Some r -> incr r
    | None -> Hashtbl.add t.sites s (ref 1)

  let observe t ev =
    let g = t.tot in
    match ev with
    | Meta _ | Phase_begin _ | Phase_end _ | Rw_site _ | Rw_exit _
    | Smile_write _ | Table_add _ | Tb_fuse _ | Tb_superblock _ | Tb_side_exit _
    | Tb_ir _ | Tb_chain _ | Tlb_flush _ | Cache_load _ | Cache_store _
    | Cache_reject _ | Health_ok _ | Health_degraded _ | Serve_admit _
    | Serve_done _ | Serve_reject _ ->
        ()
    | Tier_promote _ -> g.tier_promotions <- g.tier_promotions + 1
    | Tb_recompile _ -> g.recompiles <- g.recompiles + 1
    | Ic_hit _ -> g.ic_hits <- g.ic_hits + 1
    | Ic_miss _ -> g.ic_misses <- g.ic_misses + 1
    | Ic_mega _ -> g.ic_megamorphic <- g.ic_megamorphic + 1
    | Tb_compile { body; _ } ->
        g.tb_compiles <- g.tb_compiles + 1;
        t.bodies <- body :: t.bodies
    | Tb_hit _ -> g.tb_hits <- g.tb_hits + 1
    | Tb_invalidate _ -> g.tb_invalidations <- g.tb_invalidations + 1
    | Icache_burst _ -> g.icache_bursts <- g.icache_bursts + 1
    | Fault_raised _ -> g.faults_raised <- g.faults_raised + 1
    | Fault_recovered { site = s; _ } ->
        g.faults_recovered <- g.faults_recovered + 1;
        site t s
    | Trap_taken { site = s; _ } ->
        g.traps <- g.traps + 1;
        site t s
    | Check_taken { site = s; _ } ->
        g.checks <- g.checks + 1;
        site t s
    | Lazy_discovered _ -> g.lazies <- g.lazies + 1
    | Signal_delivered _ -> g.signals <- g.signals + 1
    | Sched_steal _ -> g.steals <- g.steals + 1
    | Sched_migrate _ -> g.migrations <- g.migrations + 1
    | Tb_profile _ -> t.profiles <- ev :: t.profiles

  let totals t = t.tot
  let profile_events t = List.rev t.profiles

  let correctness_events t =
    t.tot.faults_recovered + t.tot.traps + t.tot.checks

  let per_site t =
    Hashtbl.fold (fun s r acc -> (s, !r) :: acc) t.sites []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let tb_body_histogram t =
    let b1 = ref 0 and b2 = ref 0 and b3 = ref 0 and b4 = ref 0 in
    List.iter
      (fun n ->
        if n <= 8 then incr b1
        else if n <= 32 then incr b2
        else if n <= 128 then incr b3
        else incr b4)
      t.bodies;
    [ ("1-8", !b1); ("9-32", !b2); ("33-128", !b3); ("129+", !b4) ]
end
