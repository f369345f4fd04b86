(* Content-addressed persistent translation cache.

   One directory holds two kinds of artifacts, each a Container-framed
   Marshal payload named by the hex MD5 of the guest content it was derived
   from:

     <key>.rewrite   the CHBP rewrite context (Chbp.t): site tables, SMILE
                     layouts, scavenge results — everything Chbp.rewrite
                     decided about the binary
     <key>.plan      a Machine.plan: post-optimize TIR ops in pre-closure
                     form, superblock shapes and inline-cache seed
                     profiles

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

let schema_version = 11
let magic = "CHIMCAC1"

(* Artifacts memoized in process, keyed by file path: a plan's
   translation template ({!Machine.template}, left by its first replay)
   or a decoded, {!Chbp.share}d rewrite context, each with the checksum of
   the file it came from. The file stays the source of truth — a load uses
   the memoized value only while the file's frame verifies with the same
   checksum. Pool workers share one [t], so the table is guarded by [mu];
   [memo_capacity] bounds it, least recently used out first. *)
type art =
  | Template of {
      tpl : Machine.template;
      entries : int;  (** the plan's blocks, for telemetry *)
    }
  | Context of Chbp.t

type memo = { sum : string; art : art; mutable used : int }

type t = {
  dir : string;
  mu : Mutex.t;
  memo : (string, memo) Hashtbl.t;
  mutable tick : int;
}

let memo_capacity = 16

let dir t = t.dir

let rec mkdirs path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdirs (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let open_dir dir =
  mkdirs dir;
  { dir; mu = Mutex.create (); memo = Hashtbl.create memo_capacity; tick = 0 }

let memo_find c ~path ~sum =
  Mutex.protect c.mu (fun () ->
      match Hashtbl.find_opt c.memo path with
      | Some e when String.equal e.sum sum ->
          c.tick <- c.tick + 1;
          e.used <- c.tick;
          Some e.art
      | _ -> None)

let memo_add c ~path ~sum art =
  Mutex.protect c.mu (fun () ->
      if Hashtbl.length c.memo >= memo_capacity && not (Hashtbl.mem c.memo path)
      then begin
        let lru =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, used) when used <= e.used -> acc
              | _ -> Some (k, e.used))
            c.memo None
        in
        Option.iter (fun (k, _) -> Hashtbl.remove c.memo k) lru
      end;
      c.tick <- c.tick + 1;
      Hashtbl.replace c.memo path { sum; art; used = c.tick })

(* ------------------------------------------------------------------ *)
(* Content digests                                                     *)
(* ------------------------------------------------------------------ *)

(* The digested bytes are assembled in a per-domain scratch buffer that
   lives as long as its domain: pool workers digest concurrently, and a
   fresh 64 KiB buffer, a copy of every code page and a copy of the result
   per call would put each warm request's code on the major heap three
   times over. Besides the result, a call allocates only a few short-lived
   minor-heap values (the ISA name, the list of mapped ranges). *)
type scratch = { mutable buf : bytes; mutable len : int }

let scratch_key =
  Domain.DLS.new_key (fun () -> { buf = Bytes.create 65536; len = 0 })

(* Make room for [n] more bytes; returns the offset they go at. *)
let extend s n =
  if s.len + n > Bytes.length s.buf then begin
    let buf = Bytes.create (max (s.len + n) (2 * Bytes.length s.buf)) in
    Bytes.blit s.buf 0 buf 0 s.len;
    s.buf <- buf
  end;
  let off = s.len in
  s.len <- s.len + n;
  off

let add_string s str =
  let off = extend s (String.length str) in
  Bytes.blit_string str 0 s.buf off (String.length str)

(* The bytes of [Printf.sprintf "%x" v] (a negative [v] as its 63-bit
   pattern), written in place without a format's allocation per page. *)
let add_hex s v =
  let digits = ref 1 in
  while !digits < 16 && v lsr (4 * !digits) <> 0 do incr digits done;
  let off = extend s !digits in
  for i = 0 to !digits - 1 do
    Bytes.set s.buf (off + i)
      "0123456789abcdef".[(v lsr (4 * (!digits - 1 - i))) land 0xf]
  done

(* "|<addr>:<len>:" ahead of each digested chunk *)
let add_tag s addr len =
  add_string s "|";
  add_hex s addr;
  add_string s ":";
  add_hex s len;
  add_string s ":"

let header_prefix = Printf.sprintf "chimera-cache:%d|" schema_version

let start ~isa ~extra =
  let s = Domain.DLS.get scratch_key in
  s.len <- 0;
  add_string s header_prefix;
  add_string s (Ext.name isa);
  add_string s "|";
  add_string s extra;
  s

let finish s = Digest.to_hex (Digest.subbytes s.buf 0 s.len)

(* Digest the executable pages of a loaded memory image. Page granularity
   matches the permission model; data pages are excluded because a run
   mutates them (the digest of a finished run must still equal the digest
   of a fresh load whenever the code was not self-modified). *)
let digest_mem mem ~isa ~extra =
  let s = start ~isa ~extra in
  let psize = Memory.page_size in
  List.iter
    (fun (addr, len) ->
      let first = addr / psize and last = (addr + len - 1) / psize in
      for pg = first to last do
        let pa = pg * psize in
        match Memory.perm_at mem pa with
        | Some p when p.Memory.x ->
            let lo = max addr pa and hi = min (addr + len) (pa + psize) in
            add_tag s lo (hi - lo);
            let off = extend s (hi - lo) in
            Memory.peek_into mem lo s.buf off (hi - lo)
        | _ -> ()
      done)
    (Memory.mapped_ranges mem);
  finish s

(* Digest a SELF binary before any memory image exists — the address for
   rewrite artifacts, computed from the executable sections plus the entry
   point (which steers disassembly). *)
let digest_bin bin ~extra =
  let s = start ~isa:bin.Binfile.isa ~extra in
  add_string s "|entry:";
  add_hex s bin.Binfile.entry;
  List.iter
    (fun sec ->
      let data = sec.Binfile.sec_data in
      let n = Bytes.length data in
      add_tag s sec.Binfile.sec_addr n;
      let off = extend s n in
      Bytes.blit data 0 s.buf off n)
    (Binfile.code_sections bin);
  finish s

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

let m_shared =
  Metrics.counter ~help:"Plan seeds served by cloning an in-process template"
    "chimera_cache_plan_shared_total"

(* Content addressing makes concurrent stores of one digest redundant, not
   conflicting: every writer would serialize the same artifact. When a
   valid entry already sits at [path] — another tenant won the race, or a
   previous process populated the directory — skip the export, the
   Marshal and the tmp + rename entirely. Only a *valid* entry
   short-circuits: its frame must verify, and its payload must either
   carry a checksum the memo holds (it decoded before) or decode now. A
   truncated or version-skewed file is overwritten as before. [export]
   runs only when the store actually writes. *)
let store_raw c ~key ~kind export =
  let path = path_of c ~key ~kind in
  let valid =
    match Container.check ~path ~magic ~version:schema_version with
    | Error _ -> false
    | Ok f ->
        Option.is_some (memo_find c ~path ~sum:(Container.frame_digest f))
        || Result.is_ok (Container.decode f)
  in
  if valid then (if !Metrics.enabled then Metrics.incr m_dedups)
  else begin
    let v, entries = export () in
    Container.write ~path ~magic ~version:schema_version v;
    if !Metrics.enabled then begin
      Metrics.incr m_stores;
      Metrics.gauge_add m_entry_bytes (file_size path)
    end;
    if !Obs.enabled then
      Obs.emit (Obs.Cache_store { key; entries; bytes = file_size path })
  end

let hit ~key ~entries ~bytes =
  if !Metrics.enabled then Metrics.incr m_loads;
  if !Obs.enabled then Obs.emit (Obs.Cache_load { key; entries; bytes })

let miss ~key ~reason =
  if !Metrics.enabled then Metrics.incr m_rejects;
  if !Obs.enabled then Obs.emit (Obs.Cache_reject { key; reason });
  Error reason

let load_frame ~key ~path =
  match Container.check ~path ~magic ~version:schema_version with
  | Ok f -> Ok (f, file_size path)
  | Error "missing" -> miss ~key ~reason:"miss"
  | Error reason -> miss ~key ~reason

(* ------------------------------------------------------------------ *)
(* Rewrite contexts                                                    *)
(* ------------------------------------------------------------------ *)

let store_rewrite c ~key (ctx : Chbp.t) =
  store_raw c ~key ~kind:"rewrite" (fun () -> (ctx, 1))

(* The frame is verified on every load; a checksum the memo holds a
   context for skips the unmarshal and returns that shared context, and
   any other valid file is decoded, shared and memoized. *)
let load_rewrite c ~key : (Chbp.t, string) result =
  let path = path_of c ~key ~kind:"rewrite" in
  match load_frame ~key ~path with
  | Error _ as e -> e
  | Ok (f, bytes) -> (
      let sum = Container.frame_digest f in
      match memo_find c ~path ~sum with
      | Some (Context ctx) ->
          hit ~key ~entries:1 ~bytes;
          Ok ctx
      | Some (Template _) | None -> (
          match (Container.decode f : (Chbp.t, string) result) with
          | Ok ctx ->
              Chbp.share ctx;
              memo_add c ~path ~sum (Context ctx);
              hit ~key ~entries:1 ~bytes;
              Ok ctx
          | Error reason -> miss ~key ~reason))

(* ------------------------------------------------------------------ *)
(* Translation plans                                                   *)
(* ------------------------------------------------------------------ *)

let store_plan c ~key (m : Machine.t) =
  store_raw c ~key ~kind:"plan" (fun () ->
      let plan = Machine.export_plan m in
      (plan, Machine.plan_stats plan))

(* Load-and-seed as one operation, so the hit/miss accounting reflects
   whether the machine actually went warm: a plan that loads but is then
   refused by the machine (engine-flag skew, replay divergence) is a miss
   with the machine's reason, exactly like a corrupt artifact. The frame
   is verified on every seed; a checksum the memo holds a template for
   skips the unmarshal and the replay, and any other valid file is
   replayed and becomes the key's template. *)
let seed_plan c ~key (m : Machine.t) =
  let path = path_of c ~key ~kind:"plan" in
  match load_frame ~key ~path with
  | Error _ as e -> e
  | Ok (f, bytes) -> (
      let sum = Container.frame_digest f in
      let replay () =
        match (Container.decode f : (Machine.plan, string) result) with
        | Error reason -> miss ~key ~reason
        | Ok plan -> (
            match Machine.seed_plan m plan with
            | Ok (n, tpl) ->
                let entries = Machine.plan_stats plan in
                Option.iter
                  (fun tpl -> memo_add c ~path ~sum (Template { tpl; entries }))
                  tpl;
                hit ~key ~entries ~bytes;
                Ok n
            | Error reason -> miss ~key ~reason
            | exception _ -> miss ~key ~reason:"seed")
      in
      match memo_find c ~path ~sum with
      | Some (Context _) | None -> replay ()
      | Some (Template { tpl; entries }) -> (
          match Machine.seed_template m tpl with
          | Ok n ->
              if !Metrics.enabled then Metrics.incr m_shared;
              hit ~key ~entries ~bytes;
              Ok n
          | Error _ -> replay ()
          | exception _ -> miss ~key ~reason:"seed"))

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
  Mutex.protect c.mu (fun () -> Hashtbl.reset c.memo);
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
