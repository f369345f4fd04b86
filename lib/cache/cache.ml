(* Content-addressed persistent translation cache.

   One directory holds two kinds of artifacts, each a Container-framed
   Marshal payload named by the hex MD5 of the guest content it was derived
   from:

     <key>.rewrite   the CHBP rewrite context (Chbp.t): site tables, SMILE
                     layouts, scavenge results — everything Chbp.rewrite
                     decided about the binary
     <key>.plan      a Machine.plan: decoded runs and post-optimize TIR ops
                     in pre-closure form, superblock shapes and relayout
                     decisions, tier heat and inline-cache seed profiles

   The key is the whole correctness story. It digests the guest code bytes
   (executable pages only — data pages mutate during every run) together
   with the ISA, a caller-supplied configuration tag and the cache schema
   version, so:

   - a different binary, ISA or engine configuration simply addresses a
     different entry (miss, cold compile);
   - plans are stored under a digest taken {e after} the exporting run, so
     a self-modifying program stores under a key that no pristine load of
     the same binary ever computes — its entries become unreachable rather
     than wrong, with no invalidation protocol;
   - bumping [schema_version] orphans every existing entry at once.

   Loads are total: a truncated, bit-flipped, version-skewed or otherwise
   undecodable artifact comes back as [Error reason] (and a [Cache_reject]
   observation), never an exception — the caller falls back to the cold
   path. *)

let schema_version = 3
let magic = "CHIMCAC1"

type t = { dir : string }

let dir t = t.dir

let rec mkdirs path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdirs (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let open_dir dir =
  mkdirs dir;
  { dir }

(* ------------------------------------------------------------------ *)
(* Content digests                                                     *)
(* ------------------------------------------------------------------ *)

let add_header b ~isa ~extra =
  Buffer.add_string b "chimera-cache:";
  Buffer.add_string b (string_of_int schema_version);
  Buffer.add_char b '|';
  Buffer.add_string b (Ext.name isa);
  Buffer.add_char b '|';
  Buffer.add_string b extra

(* Digest the executable pages of a loaded memory image. Page granularity
   matches the permission model; data pages are excluded because a run
   mutates them (the digest of a finished run must still equal the digest
   of a fresh load whenever the code was not self-modified). *)
let digest_mem mem ~isa ~extra =
  let b = Buffer.create 65536 in
  add_header b ~isa ~extra;
  let psize = Memory.page_size in
  List.iter
    (fun (addr, len) ->
      let first = addr / psize and last = (addr + len - 1) / psize in
      for pg = first to last do
        let pa = pg * psize in
        match Memory.perm_at mem pa with
        | Some p when p.Memory.x ->
            let lo = max addr pa and hi = min (addr + len) (pa + psize) in
            Buffer.add_string b (Printf.sprintf "|%x:%x:" lo (hi - lo));
            Buffer.add_bytes b (Memory.peek_bytes mem lo (hi - lo))
        | _ -> ()
      done)
    (Memory.mapped_ranges mem);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digest a SELF binary before any memory image exists — the address for
   rewrite artifacts, computed from the executable sections plus the entry
   point (which steers disassembly). *)
let digest_bin bin ~extra =
  let b = Buffer.create 65536 in
  add_header b ~isa:bin.Binfile.isa ~extra;
  Buffer.add_string b (Printf.sprintf "|entry:%x" bin.Binfile.entry);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "|%x:%x:" s.Binfile.sec_addr
           (Bytes.length s.Binfile.sec_data));
      Buffer.add_bytes b s.Binfile.sec_data)
    (Binfile.code_sections bin);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Generic framed artifacts                                            *)
(* ------------------------------------------------------------------ *)

let path_of c ~key ~kind = Filename.concat c.dir (key ^ "." ^ kind)

let file_size path = match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Hit/miss telemetry *)
let m_loads = Metrics.counter ~help:"Cache loads served" "chimera_cache_loads_total"
let m_stores = Metrics.counter ~help:"Cache artifacts stored" "chimera_cache_stores_total"

let m_rejects =
  Metrics.counter ~help:"Cache loads rejected (miss or undecodable)"
    "chimera_cache_rejects_total"

let m_entry_bytes =
  Metrics.gauge ~help:"Bytes of cache artifacts written this process"
    "chimera_cache_entry_bytes"

let m_dedups =
  Metrics.counter
    ~help:"Stores skipped because a valid entry already held the digest"
    "chimera_cache_dedup_total"

(* Content addressing makes concurrent stores of one digest redundant, not
   conflicting: every writer would serialize the same artifact. When a
   valid entry already sits at [path] — another tenant won the race, or a
   previous process populated the directory — skip the Marshal + tmp +
   rename entirely. Only a *valid* entry short-circuits; a truncated or
   version-skewed file is overwritten as before. *)
let store_raw c ~key ~kind ~entries v =
  let path = path_of c ~key ~kind in
  match Container.read ~path ~magic ~version:schema_version with
  | Ok _ -> if !Metrics.enabled then Metrics.incr m_dedups
  | Error _ ->
      Container.write ~path ~magic ~version:schema_version v;
      if !Metrics.enabled then begin
        Metrics.incr m_stores;
        Metrics.gauge_add m_entry_bytes (file_size path)
      end;
      if !Obs.enabled then
        Obs.emit (Obs.Cache_store { key; entries; bytes = file_size path })

let hit ~key ~entries ~bytes =
  if !Metrics.enabled then Metrics.incr m_loads;
  if !Obs.enabled then Obs.emit (Obs.Cache_load { key; entries; bytes })

let miss ~key ~reason =
  if !Metrics.enabled then Metrics.incr m_rejects;
  if !Obs.enabled then Obs.emit (Obs.Cache_reject { key; reason });
  Error reason

let load_raw c ~key ~kind =
  let path = path_of c ~key ~kind in
  match Container.read ~path ~magic ~version:schema_version with
  | Ok v -> Ok (v, file_size path)
  | Error "missing" -> miss ~key ~reason:"miss"
  | Error reason -> miss ~key ~reason

(* ------------------------------------------------------------------ *)
(* Rewrite contexts                                                    *)
(* ------------------------------------------------------------------ *)

let store_rewrite c ~key (ctx : Chbp.t) = store_raw c ~key ~kind:"rewrite" ~entries:1 ctx

let load_rewrite c ~key : (Chbp.t, string) result =
  match load_raw c ~key ~kind:"rewrite" with
  | Ok (ctx, bytes) ->
      hit ~key ~entries:1 ~bytes;
      Ok ctx
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Translation plans                                                   *)
(* ------------------------------------------------------------------ *)

let store_plan c ~key (m : Machine.t) =
  let plan = Machine.export_plan m in
  let blocks, insts = Machine.plan_stats plan in
  store_raw c ~key ~kind:"plan" ~entries:(blocks + insts) plan

(* Load-and-seed as one operation, so the hit/miss accounting reflects
   whether the machine actually went warm: a plan that loads but is then
   refused by the machine (engine-flag skew, replay divergence) is a miss
   with the machine's reason, exactly like a corrupt artifact. *)
let seed_plan c ~key (m : Machine.t) =
  match load_raw c ~key ~kind:"plan" with
  | Error _ as e -> e
  | Ok ((plan : Machine.plan), bytes) -> (
      match Machine.seed_plan m plan with
      | Ok n ->
          let blocks, insts = Machine.plan_stats plan in
          hit ~key ~entries:(blocks + insts) ~bytes;
          Ok n
      | Error reason -> miss ~key ~reason
      | exception _ -> miss ~key ~reason:"seed")

(* ------------------------------------------------------------------ *)
(* Maintenance (CLI + bench)                                           *)
(* ------------------------------------------------------------------ *)

let is_entry name =
  Filename.check_suffix name ".rewrite" || Filename.check_suffix name ".plan"

let stat c =
  match Sys.readdir c.dir with
  | exception Sys_error _ -> (0, 0)
  | names ->
      Array.fold_left
        (fun (n, bytes) name ->
          if is_entry name then
            (n + 1, bytes + file_size (Filename.concat c.dir name))
          else (n, bytes))
        (0, 0) names

let clear c =
  match Sys.readdir c.dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun n name ->
          if is_entry name || Filename.check_suffix name ".tmp" then begin
            (try Sys.remove (Filename.concat c.dir name) with Sys_error _ -> ());
            n + 1
          end
          else n)
        0 names
