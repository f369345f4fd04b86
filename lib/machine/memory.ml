type perm = { r : bool; w : bool; x : bool }

let perm_none = { r = false; w = false; x = false }
let perm_r = { r = true; w = false; x = false }
let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }

let pp_perm fmt p =
  Format.fprintf fmt "%c%c%c"
    (if p.r then 'r' else '-')
    (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

exception Violation of { addr : int; access : Fault.access }

let page_size = 4096
let page_bits = 12

(* Demand-zero pages: [map] records a page with its permissions but no
   storage, and an empty [data] marks it untouched. The first checked
   access ([tlb_fill], of any kind), [poke] or [share_range] gives it its
   zero-filled 4 KiB; peeks read an untouched page as zeros without
   materializing it. Untouched is tested by length, not by physical
   equality with [no_bytes], so a marshaled copy still reads correctly. *)
type page = { mutable data : bytes; mutable perm : perm }

let no_bytes = Bytes.create 0

(* What peeks read for an unmapped or untouched page; never written. *)
let zero_page = Bytes.make page_size '\000'

let materialize p =
  if Bytes.length p.data = 0 then p.data <- Bytes.make page_size '\000';
  p.data

(* Software TLB: per access kind, a direct-mapped cache of page index ->
   page payload, so hot loads/stores/fetches skip the page hashtable (and
   its [Some] allocation) and the permission re-check.

   Pages can be aliased between memories ([share_range]), so a permission
   change through one memory must invalidate every memory's TLB. A global
   permission epoch makes that cheap: [map]/[set_perm]/[share_range] advance
   it, each TLB records the epoch it was filled under, and a lookup whose
   epoch lags flushes lazily before probing the page table again. The
   deterministic-fault contract survives by construction: a TLB hit implies
   a successful permission check under the current epoch, and the TLB only
   ever caches materialized pages. *)

(* 1024 entries per kind keeps the working set of the SPEC-profile
   workloads (hundreds of pages of heap + stack + text) resident; every
   miss pays a hashtable probe and a [Some] allocation. *)
let tlb_bits = 10
let tlb_size = 1 lsl tlb_bits
let tlb_mask = tlb_size - 1

(* Advanced by any mapping/permission change in the process. [Atomic.get]
   compiles to a plain load; cross-domain races at worst coalesce two bumps
   into one, which still differs from every previously recorded epoch. *)
let perm_epoch = Atomic.make 0

type t = {
  pages : (int, page) Hashtbl.t;
  tlb_r_tag : int array;
  tlb_r_data : bytes array;
  tlb_w_tag : int array;
  tlb_w_data : bytes array;
  tlb_x_tag : int array;
  tlb_x_data : bytes array;
  mutable tlb_epoch : int;  (** [perm_epoch] value the TLB was filled under *)
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable code_log : (int * int) list;
      (** [(addr, len)] of every {!patch_code}, newest first *)
}

let create () =
  { pages = Hashtbl.create 64;
    tlb_r_tag = Array.make tlb_size (-1);
    tlb_r_data = Array.make tlb_size no_bytes;
    tlb_w_tag = Array.make tlb_size (-1);
    tlb_w_data = Array.make tlb_size no_bytes;
    tlb_x_tag = Array.make tlb_size (-1);
    tlb_x_data = Array.make tlb_size no_bytes;
    tlb_epoch = Atomic.get perm_epoch;
    tlb_hits = 0;
    tlb_misses = 0;
    code_log = [] }

let page_index addr = addr lsr page_bits
let page_offset addr = addr land (page_size - 1)

let flush_tlb t =
  Array.fill t.tlb_r_tag 0 tlb_size (-1);
  Array.fill t.tlb_w_tag 0 tlb_size (-1);
  Array.fill t.tlb_x_tag 0 tlb_size (-1);
  (* tags gate the data slots; clear them anyway so stale pages can be
     collected *)
  Array.fill t.tlb_r_data 0 tlb_size no_bytes;
  Array.fill t.tlb_w_data 0 tlb_size no_bytes;
  Array.fill t.tlb_x_data 0 tlb_size no_bytes;
  t.tlb_epoch <- Atomic.get perm_epoch

(* TLB metrics are fed in [flush_tlb_stats] from the per-memory mutables —
   the per-access path stays metric-free. Only the epoch bump records at
   its (cold) source. *)
let m_tlb_hits = Metrics.counter ~help:"TLB hits" "chimera_tlb_hits_total"
let m_tlb_misses = Metrics.counter ~help:"TLB misses" "chimera_tlb_misses_total"

let m_perm_epochs =
  Metrics.counter ~help:"Permission-epoch bumps (TLB shootdowns)"
    "chimera_perm_epoch_bumps_total"

let bump_perm_epoch ~addr ~len =
  Atomic.incr perm_epoch;
  if !Metrics.enabled then Metrics.incr m_perm_epochs;
  if !Obs.enabled then Obs.emit (Obs.Tlb_flush { addr; len })

let map t ~addr ~len perm =
  if len <= 0 then invalid_arg "Memory.map: non-positive length";
  bump_perm_epoch ~addr ~len;
  for idx = page_index addr to page_index (addr + len - 1) do
    if Hashtbl.mem t.pages idx then
      invalid_arg
        (Printf.sprintf "Memory.map: page 0x%x already mapped" (idx lsl page_bits));
    Hashtbl.replace t.pages idx { data = no_bytes; perm }
  done

let set_perm t ~addr ~len perm =
  (* epoch first: a partial failure may still have downgraded some pages *)
  bump_perm_epoch ~addr ~len;
  for idx = page_index addr to page_index (addr + len - 1) do
    match Hashtbl.find_opt t.pages idx with
    | Some p -> p.perm <- perm
    | None ->
        invalid_arg
          (Printf.sprintf "Memory.set_perm: page 0x%x unmapped" (idx lsl page_bits))
  done

let perm_at t addr =
  match Hashtbl.find_opt t.pages (page_index addr) with
  | Some p -> Some p.perm
  | None -> None

let is_mapped t addr = Hashtbl.mem t.pages (page_index addr)

let share_range ~from ~into ~addr ~len =
  bump_perm_epoch ~addr ~len;
  for idx = page_index addr to page_index (addr + len - 1) do
    match Hashtbl.find_opt from.pages idx with
    | None ->
        invalid_arg
          (Printf.sprintf "Memory.share_range: source page 0x%x unmapped"
             (idx lsl page_bits))
    | Some p ->
        if Hashtbl.mem into.pages idx then
          invalid_arg
            (Printf.sprintf "Memory.share_range: destination page 0x%x mapped"
               (idx lsl page_bits));
        (* materialized first, so no two memories ever race to give one
           untouched page its storage *)
        ignore (materialize p);
        Hashtbl.replace into.pages idx p
  done

let violate addr access = raise (Violation { addr; access })

(* TLB miss: lazily flush on an epoch change, then probe the page table and
   re-run the permission check; only a successful access is cached. *)
let tlb_fill t tag data slot pg addr access =
  if t.tlb_epoch <> Atomic.get perm_epoch then flush_tlb t;
  t.tlb_misses <- t.tlb_misses + 1;
  match Hashtbl.find_opt t.pages pg with
  | None -> violate addr access
  | Some p ->
      let ok =
        match access with
        | Fault.Read -> p.perm.r
        | Fault.Write -> p.perm.w
        | Fault.Execute -> p.perm.x
      in
      if not ok then violate addr access;
      let d = materialize p in
      Array.unsafe_set tag slot pg;
      Array.unsafe_set data slot d;
      d

let tlb_get t tag data addr access =
  let pg = addr lsr page_bits in
  (* XOR-folded index: guest regions sit at power-of-two bases (stack top,
     heap base, text), so a plain [pg land mask] makes hot pages from two
     regions alias the same slot and ping-pong — folding the next index's
     worth of high bits in breaks the power-of-two stride. *)
  let slot = (pg lxor (pg lsr tlb_bits)) land tlb_mask in
  if Array.unsafe_get tag slot = pg && t.tlb_epoch = Atomic.get perm_epoch then begin
    t.tlb_hits <- t.tlb_hits + 1;
    Array.unsafe_get data slot
  end
  else tlb_fill t tag data slot pg addr access

let read_data t addr = tlb_get t t.tlb_r_tag t.tlb_r_data addr Fault.Read
let write_data t addr = tlb_get t t.tlb_w_tag t.tlb_w_data addr Fault.Write
let exec_data t addr = tlb_get t t.tlb_x_tag t.tlb_x_data addr Fault.Execute

let checked_data t addr access =
  match access with
  | Fault.Read -> read_data t addr
  | Fault.Write -> write_data t addr
  | Fault.Execute -> exec_data t addr

let tlb_stats t = (t.tlb_hits, t.tlb_misses)
let tlb_misses_live t = t.tlb_misses

let flush_tlb_stats t =
  if !Metrics.enabled then begin
    Metrics.add m_tlb_hits t.tlb_hits;
    Metrics.add m_tlb_misses t.tlb_misses
  end;
  t.tlb_hits <- 0;
  t.tlb_misses <- 0

(* Pokes map on demand (as [perm_none]) so loaders can write anywhere, and
   materialize the page they write. *)
let poke_data t addr =
  match Hashtbl.find_opt t.pages (page_index addr) with
  | Some p -> materialize p
  | None ->
      let p = { data = no_bytes; perm = perm_none } in
      Hashtbl.replace t.pages (page_index addr) p;
      materialize p

(* Peeks never change the address space: an unmapped or untouched page
   reads as zeros and stays as it was. *)
let peek_data t addr =
  match Hashtbl.find_opt t.pages (page_index addr) with
  | Some p when Bytes.length p.data > 0 -> p.data
  | _ -> zero_page

(* Fast path: access within one page; slow path crosses a boundary. *)

let load_u8 t addr = Bytes.get_uint8 (read_data t addr) (page_offset addr)

(* Little-endian read of n <= 8 bytes, possibly across pages, in ascending
   address order so a violation is raised at the first inaccessible byte.
   The low seven bytes accumulate in an immediate [int]; only byte 7 needs
   Int64 arithmetic — no per-byte boxing. *)
let load_multi t addr n access =
  let lo = ref 0 in
  let k = if n < 7 then n else 7 in
  for i = 0 to k - 1 do
    let a = addr + i in
    lo := !lo lor (Bytes.get_uint8 (checked_data t a access) (page_offset a) lsl (8 * i))
  done;
  if n <= 7 then Int64.of_int !lo
  else
    let a = addr + 7 in
    let b7 = Bytes.get_uint8 (checked_data t a access) (page_offset a) in
    Int64.logor (Int64.of_int !lo) (Int64.shift_left (Int64.of_int b7) 56)

let load_u16 t addr =
  let off = page_offset addr in
  if off + 2 <= page_size then Bytes.get_uint16_le (read_data t addr) off
  else Int64.to_int (load_multi t addr 2 Fault.Read)

let load_u32 t addr =
  let off = page_offset addr in
  if off + 4 <= page_size then
    Int32.to_int (Bytes.get_int32_le (read_data t addr) off) land 0xFFFFFFFF
  else Int64.to_int (load_multi t addr 4 Fault.Read)

let load_u64 t addr =
  let off = page_offset addr in
  if off + 8 <= page_size then Bytes.get_int64_le (read_data t addr) off
  else load_multi t addr 8 Fault.Read

let store_u8 t addr v =
  Bytes.set_uint8 (write_data t addr) (page_offset addr) (v land 0xFF)

(* Mirror of [load_multi]: ascending address order (earlier bytes are
   written before a later byte faults, as the recursive version did), low
   seven bytes from an immediate [int]. *)
let store_multi t addr n v =
  let lo = Int64.to_int (Int64.logand v 0xFF_FFFF_FFFF_FFFFL) in
  let k = if n < 7 then n else 7 in
  for i = 0 to k - 1 do
    let a = addr + i in
    Bytes.set_uint8 (write_data t a) (page_offset a) ((lo lsr (8 * i)) land 0xFF)
  done;
  if n > 7 then begin
    let a = addr + 7 in
    Bytes.set_uint8 (write_data t a) (page_offset a)
      (Int64.to_int (Int64.shift_right_logical v 56))
  end

let store_u16 t addr v =
  let off = page_offset addr in
  if off + 2 <= page_size then Bytes.set_uint16_le (write_data t addr) off (v land 0xFFFF)
  else store_multi t addr 2 (Int64.of_int v)

let store_u32 t addr v =
  let off = page_offset addr in
  if off + 4 <= page_size then Bytes.set_int32_le (write_data t addr) off (Int32.of_int v)
  else store_multi t addr 4 (Int64.of_int v)

let store_u64 t addr v =
  let off = page_offset addr in
  if off + 8 <= page_size then Bytes.set_int64_le (write_data t addr) off v
  else store_multi t addr 8 v

let fetch_u16 t addr =
  let off = page_offset addr in
  if off + 2 <= page_size then Bytes.get_uint16_le (exec_data t addr) off
  else Int64.to_int (load_multi t addr 2 Fault.Execute)

(* [fetch_u16] through the page table: the same permission checks and
   violations, in the same address order, but no TLB count, no TLB fill
   and no storage for an untouched page (it reads as zeros). *)
let fetch_u8_direct t addr =
  match Hashtbl.find t.pages (page_index addr) with
  | p when p.perm.x ->
      if Bytes.length p.data = 0 then 0
      else Bytes.get_uint8 p.data (page_offset addr)
  | _ -> violate addr Fault.Execute
  | exception Not_found -> violate addr Fault.Execute

let fetch_u16_direct t addr =
  let lo = fetch_u8_direct t addr in
  lo lor (fetch_u8_direct t (addr + 1) lsl 8)

let peek_u8 t addr = Bytes.get_uint8 (peek_data t addr) (page_offset addr)

let peek_u16 t addr = peek_u8 t addr lor (peek_u8 t (addr + 1) lsl 8)

let peek_u32 t addr = peek_u16 t addr lor (peek_u16 t (addr + 2) lsl 16)

let peek_u64 t addr =
  Int64.logor
    (Int64.of_int (peek_u32 t addr))
    (Int64.shift_left (Int64.of_int (peek_u32 t (addr + 4))) 32)

let poke_u8 t addr v =
  Bytes.set_uint8 (poke_data t addr) (page_offset addr) (v land 0xFF)

let poke_u16 t addr v =
  poke_u8 t addr v;
  poke_u8 t (addr + 1) (v lsr 8)

let poke_u32 t addr v =
  poke_u16 t addr v;
  poke_u16 t (addr + 2) (v lsr 16)

let poke_u64 t addr v =
  poke_u32 t addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
  poke_u32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical v 32))

(* Page-wise blits rather than byte loops: the per-byte path pays one page
   lookup per byte, which whole-image consumers (loaders, patch
   application, content digests, snapshot dumps) cannot afford. *)
let poke_bytes t addr b =
  let len = Bytes.length b in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = page_offset a in
    let n = min (len - !i) (page_size - off) in
    Bytes.blit b !i (poke_data t a) off n;
    i := !i + n
  done

let patch_code t addr b =
  poke_bytes t addr b;
  t.code_log <- (addr, Bytes.length b) :: t.code_log

let code_log t = t.code_log

let peek_into t addr dst dst_off len =
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = page_offset a in
    let n = min (len - !i) (page_size - off) in
    Bytes.blit (peek_data t a) off dst (dst_off + !i) n;
    i := !i + n
  done

let peek_bytes t addr len =
  let out = Bytes.create len in
  peek_into t addr out 0 len;
  out

let mapped_ranges t =
  let idxs = Hashtbl.fold (fun idx _ acc -> idx :: acc) t.pages [] in
  let idxs = List.sort_uniq compare idxs in
  let rec runs = function
    | [] -> []
    | idx :: rest ->
        let rec extend last = function
          | next :: rest' when next = last + 1 -> extend next rest'
          | rest' -> (last, rest')
        in
        let last, rest' = extend idx rest in
        (idx lsl page_bits, (last - idx + 1) * page_size) :: runs rest'
  in
  runs idxs
