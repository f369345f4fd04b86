(* Decode-cache entries carry the generation stamp of the bytes they were
   decoded from; a stale entry fails its stamp check and is re-decoded.
   [Cill] also records the last byte actually examined (an illegal decode
   may have fetched only the low parcel), so its stamp covers exactly the
   bytes the verdict depends on. *)
type centry = Cok of Inst.t * int * int | Cill of string * int * int

type view = {
  vmem : Memory.t;
  cache : (int, centry) Hashtbl.t;
  blocks : (int, t Tblock.t) Hashtbl.t;  (** translation blocks, keyed by entry pc *)
  heat : (int, int ref) Hashtbl.t;
      (** interpreted-dispatch counts of still-untranslated entries (tiered
          machines only): an entry is stepped until its heat crosses the
          first tier threshold, then translated and dropped from here *)
  ics : (int, icsite) Hashtbl.t;
      (** per-site inline caches for indirect terminators
          ([jalr]/[c_jr]/[c_jalr]), keyed by the site pc *)
  skels : (int, skel) Hashtbl.t;
      (** recorded translation skeletons, keyed by entry pc (recording
          machines only): the positional lower/compile decisions of the
          {e latest} translation at that entry, joined with the live block
          at {!export_plan} time to form a persistable replay recipe *)
}

(* One recorded translation-callback decision, in program order. [Slower]
   carries the very op record the translation's closures captured — its
   [k] field holds the post-optimize kind by the time the block is
   exported, so replaying the sequence through the emitter (skipping
   [Tir.optimize]) reconstructs the same execution units. [Scompile] marks
   an instruction the IR declined (routed to [compile_op]); replay
   recompiles it from the decoded instruction, which is deterministic. *)
and step = Slower of Tir.op | Scompile

and skel = {
  sk_steps : step array;
  sk_relayout : (int * bool) list;
      (** the recompile plan the translation ran under, so replay drives
          [relayout_of] to the same cut/flip decisions *)
}

and icsite = {
  site_pc : int;
  mutable site_target : int;
      (** predicted target pc of the monomorphic slot; [-1] when unbound *)
  mutable site_tb : t Tblock.t option;
      (** direct block link for [site_target] — the monomorphic fast path.
          Guarded on every use by target equality and the one-compare code
          epoch check, exactly like a chain link, so SMC or a replaced
          block makes the prediction fail-safe (next use re-resolves). *)
  mutable site_poly : t Tblock.t option array;
      (** small polymorphic table behind the monomorphic slot, every entry
          a [Some]; an entry's target is its block's entry pc, under the
          same target + epoch guard. Entries are the option cells a hit
          hands to the dispatch loop, so a hit allocates nothing. *)
  mutable site_mega : bool;
      (** megamorphic: more distinct live targets than the polymorphic
          table holds — the site stops caching and every dispatch goes to
          the per-view block table *)
  mutable site_hits : int;  (** cumulative per-site hits (reporting only) *)
  mutable site_misses : int;
}

and t = {
  mutable cur : view;
  mutable views : view list;
      (** recently used views, most recent first, capped at [max_views] *)
  gens : Tblock.Gen.t;
      (** page generations, shared by every view: physical pages may be
          aliased between views, so a patch invalidates everywhere *)
  mutable isa : Ext.t;
  costs : Costs.t;
  vlen : int;
  xregs : bytes;
      (** the 32 integer registers, 8 bytes each in native byte order,
          read and written unboxed (see {!get_reg}); [x0]'s slot stays 0 *)
  vregs : bytes;
  mutable vl : int;
  mutable vsew : Inst.sew;
  mutable pc : int;
  mutable retired : int;
  mutable vector_retired : int;
  mutable indirect_retired : int;
  (* cycles are not stored directly: the invariant cycles = retired +
     cycles_extra holds at all times, so the per-instruction fast path only
     bumps [retired] and everything charged beyond one cycle per retired
     instruction (vector ops, icache misses, runtime events) lands here *)
  mutable cycles_extra : int;
  icache : Icache.t option;
      (** the L1i model, fixed at creation like the engine; it caps
          translation at tier 2 (see {!shape}) *)
  engine : Engine.t;
  mutable code_epoch : int;
      (** advanced on every {!invalidate_code} and ISA change; blocks whose
          [echeck] equals it are valid with one compare, and chain links are
          implicitly severed when it moves (Tblock.revalidate) *)
  mutable chain_hits : int;  (** dispatches served by a chain link *)
  mutable tb_dispatches : int;  (** total block dispatches (chained or not) *)
  mutable side_exits : int;  (** dispatches that left a block via a taken
                                 inlined branch *)
  mutable fused_pairs : int;
      (** instructions merged into multi-instruction units at translation
          time (Σ (unit width − 1) over translated blocks) *)
  tiered : bool;
      (** [Tiered], unpacked once so the dispatch loop reads a plain
          boolean: entries are interpreted until warm, then climb
          block → superblock → IR-optimized, hot blocks whose observed
          side-exit profile contradicts the static BTFN layout are
          recompiled with trace-style layout, and indirect terminators
          carry inline caches; untiered machines translate at the top
          tier on first touch *)
  mutable pending_ic : icsite option;
      (** set by an indirect terminator closure as it completes; the next
          dispatch consumes it to predict the successor block through the
          site's inline cache instead of the single [link_taken] slot *)
  mutable ic_hits : int;  (** dispatches predicted by an inline cache *)
  mutable ic_misses : int;  (** IC probes that fell back to the block table *)
  mutable ic_mega_d : int;  (** dispatches through megamorphic sites *)
  mutable tier_promotions : int;
  mutable recompiles : int;  (** profile-guided layout recompilations *)
  (* per-translation IR pass statistics, flushed to the metrics registry
     once per [run] like the other counters *)
  mutable ir_blocks : int;  (** translations that produced IR units *)
  mutable ir_units : int;  (** execution units emitted from IR runs *)
  mutable ir_folded : int;  (** ops folded to constants *)
  mutable ir_dead : int;  (** ops killed by dead-write elimination *)
  mutable ir_pc_elided : int;  (** ops emitted without a pc write *)
  mutable ir_tlb_elided : int;  (** paired accesses sharing one TLB check *)
  mutable ir_cached : int;  (** operand reads served from known constants *)
  ir_state : Tir.state;
      (** translation-time known-register state, reset per translation and
          threaded across the block's runs (reusable scratch, no per-block
          allocation) *)
  rec_on : bool;
      (** [Engine.record]: record translation skeletons into the view's
          [skels] table so the machine's translations can be exported as a
          persistable plan *)
  mutable translations : int;
      (** fresh translations (plan replay excluded); their latency goes
          straight to the [chimera_translate_ns] histogram *)
  mutable prof : Profile.t option;
      (** attached guest profiler; both engines account through it when set
          (picked up from [Profile.global] at creation) *)
}

type stop = Exited of int | Faulted of Fault.t | Fuel_exhausted
type action = Resume of int | Stop of stop

type handlers = {
  on_fault : t -> Fault.t -> action;
  on_ebreak : t -> pc:int -> size:int -> action;
  on_ecall : t -> pc:int -> action;
  on_check : t -> pc:int -> rd:Reg.t -> target:int -> action;
}

let default_handlers =
  { on_fault = (fun _ f -> Stop (Faulted f));
    on_ebreak =
      (fun _ ~pc ~size:_ ->
        Stop (Faulted (Fault.Illegal_instruction { pc; reason = "unhandled ebreak" })));
    on_ecall =
      (fun _ ~pc ->
        Stop (Faulted (Fault.Illegal_instruction { pc; reason = "unhandled ecall" })));
    on_check =
      (fun _ ~pc ~rd:_ ~target:_ ->
        Stop
          (Faulted
             (Fault.Illegal_instruction { pc; reason = "unhandled check instruction" })))
  }

(* Always-on metrics (lib/metrics), the process-wide store for every
   engine count. Counters are fed from the per-machine mutables when
   [flush_run_stats] folds them, once per [run] — never on the
   per-instruction path — so snapshot totals equal the machine's own
   counters by construction. Only the translate-latency histogram records
   at its source, once per (cold) translation; its sum is the translation
   time. *)
let m_retired =
  Metrics.counter "chimera_retired_total"
    ~help:"Guest instructions retired inside Machine.run"

let m_dispatches =
  Metrics.counter "chimera_dispatches_total"
    ~help:"Translation-block dispatches"

let m_chain_hits =
  Metrics.counter "chimera_chain_hits_total"
    ~help:"Dispatches served by a chain link or inline cache"

let m_side_exits =
  Metrics.counter "chimera_side_exits_total"
    ~help:"Superblock dispatches that left through a taken side exit"

let m_fused =
  Metrics.counter "chimera_fused_total"
    ~help:"Instructions merged into multi-instruction execution units"

let m_tier_promotions =
  Metrics.counter "chimera_tier_promotions_total"
    ~help:"Blocks promoted to a higher tier"

let m_recompiles =
  Metrics.counter "chimera_recompiles_total"
    ~help:"Profile-guided recompiles from observed side-exit profiles"

let m_ic_hits =
  Metrics.counter "chimera_ic_hits_total"
    ~help:"Inline-cache hits at indirect-terminator sites"

let m_ic_misses =
  Metrics.counter "chimera_ic_misses_total"
    ~help:"Inline-cache misses at indirect-terminator sites"

let m_ic_mega =
  Metrics.counter "chimera_ic_mega_dispatches_total"
    ~help:"Dispatches through megamorphic indirect sites"

let m_translations =
  Metrics.counter "chimera_translations_total"
    ~help:"Fresh block translations (plan replays excluded)"

let m_translate_ns =
  Metrics.histogram "chimera_translate_ns"
    ~help:"Latency of one block translation in nanoseconds"

(* IR pass statistics, one counter per [Tir] pass outcome *)
let m_ir_blocks =
  Metrics.counter "chimera_ir_blocks_total"
    ~help:"Translations that produced IR execution units"

let m_ir_units =
  Metrics.counter "chimera_ir_units_total"
    ~help:"Execution units emitted from IR runs"

let m_ir_folded =
  Metrics.counter "chimera_ir_folded_total"
    ~help:"IR ops folded to translation-time constants"

let m_ir_dead =
  Metrics.counter "chimera_ir_dead_total"
    ~help:"IR ops killed by dead-write elimination"

let m_ir_pc_elided =
  Metrics.counter "chimera_ir_pc_elided_total"
    ~help:"IR ops emitted without a pc write"

let m_ir_tlb_elided =
  Metrics.counter "chimera_ir_tlb_elided_total"
    ~help:"Paired IR accesses sharing one TLB check"

let m_ir_cached =
  Metrics.counter "chimera_ir_cached_total"
    ~help:"IR operand reads served from translation-time constants"

let m_faults_raised =
  Metrics.counter "chimera_faults_raised_total"
    ~help:"Deterministic machine faults raised (before any handler)"

let new_view mem =
  { vmem = mem;
    cache = Hashtbl.create 1024;
    blocks = Hashtbl.create 256;
    heat = Hashtbl.create 256;
    ics = Hashtbl.create 64;
    skels = Hashtbl.create 64 }

(* Tier thresholds. Heat is counted per interpreted instruction at an
   untranslated entry; hot is counted per dispatch of a translated block.
   Low thresholds keep the warm-up window short (hot loops reach the top
   tier within a few hundred iterations) while cold code never pays for
   translation at all. *)
let tier1_heat = 4  (* interpreted executions before the first translation *)
let tier2_hot = 32  (* block dispatches before superblock promotion *)
let tier3_hot = 128  (* superblock dispatches before IR promotion *)
let recompile_hot = 256  (* top-tier dispatches before the exit-profile check *)

(* Observed-exit-rate policy for profile-guided relayout: a branch whose
   conditional taken rate reaches [relayout_cut_rate] contradicts the BTFN
   assumption and is cut out of the block (compiled as a terminator, which
   chains through both link slots instead of side-exiting); at
   [relayout_flip_rate] the branch is so lopsided that the block is laid
   out through the taken path instead (inverted guard, trace layout). *)
let relayout_cut_rate = 0.25
let relayout_flip_rate = 0.70

(* Minimum dispatches that must have reached a unit before its observed
   exit rate is trusted — below this the rate is noise (a wrapped
   superblock's late units see only the dispatches that survived every
   earlier exit, often just one or two). *)
let relayout_min_sample = 16

(* Polymorphic inline-cache capacity: distinct live targets beyond the
   monomorphic slot plus this many table entries turn the site
   megamorphic. *)
let ic_poly_limit = 8

let create ?(engine = Engine.default) ?icache ?(vlen = 32) ?(costs = Costs.default)
    ~mem ~isa () =
  let view = new_view mem in
  { cur = view;
    views = [ view ];
    gens = Tblock.Gen.create ();
    isa;
    costs;
    vlen;
    xregs = Bytes.make (32 * 8) '\000';
    vregs = Bytes.make (32 * vlen) '\000';
    vl = 0;
    vsew = Inst.E64;
    pc = 0;
    retired = 0;
    vector_retired = 0;
    indirect_retired = 0;
    cycles_extra = 0;
    icache = Option.map Icache.create icache;
    engine;
    code_epoch = 0;
    chain_hits = 0;
    tb_dispatches = 0;
    side_exits = 0;
    fused_pairs = 0;
    tiered =
      (match engine with
       | Engine.Tiered _ -> true
       | Engine.Step | Engine.Untiered _ -> false);
    pending_ic = None;
    ic_hits = 0;
    ic_misses = 0;
    ic_mega_d = 0;
    tier_promotions = 0;
    recompiles = 0;
    ir_blocks = 0;
    ir_units = 0;
    ir_folded = 0;
    ir_dead = 0;
    ir_pc_elided = 0;
    ir_tlb_elided = 0;
    ir_cached = 0;
    ir_state = Tir.state_create ();
    rec_on = Engine.record engine;
    translations = 0;
    prof = Profile.global () }

let engine t = t.engine
let mem t = t.cur.vmem
let isa t = t.isa

let set_isa t isa =
  if not (Ext.equal t.isa isa) then begin
    t.isa <- isa;
    (* blocks compiled against the old capability set must re-check *)
    t.code_epoch <- t.code_epoch + 1
  end
let costs t = t.costs
let vlen t = t.vlen
let pc t = t.pc
let set_pc t pc = t.pc <- pc
(* The register file is a flat byte string accessed with the unboxed
   64-bit primitives: inlined into a translated closure, a register read
   feeds the Int64 arithmetic and the write stores its result without ever
   building an [Int64] box. A value is boxed only when it leaves this
   module (the exported [get_reg]). [Reg.t] is a private [int] that is
   range-checked at construction (0..31), so the coercion is free and the
   slot offset never needs a bounds check. Native byte order: the file is
   never viewed as guest memory. *)
external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get_reg t (r : Reg.t) = bytes_get64u t.xregs ((r :> int) lsl 3)

let[@inline] set_reg t (r : Reg.t) v =
  let i = (r :> int) in
  if i <> 0 then bytes_set64u t.xregs (i lsl 3) v

let get_vreg t v = Bytes.sub t.vregs (Reg.v_to_int v * t.vlen) t.vlen

let set_vreg t v b =
  if Bytes.length b <> t.vlen then invalid_arg "Machine.set_vreg: wrong width";
  Bytes.blit b 0 t.vregs (Reg.v_to_int v * t.vlen) t.vlen

let vl t = t.vl
let vsew t = t.vsew

let set_vstate t ~vl ~vsew =
  t.vl <- vl;
  t.vsew <- vsew

(* The view list is an LRU of bounded size: a retired view only loses its
   decode/block caches (rebuilt on demand if the view ever returns), never
   correctness — staleness is tracked by the shared generation table, not by
   the list. *)
let max_views = 8

let switch_view t mem =
  if t.cur.vmem != mem then
    match List.find_opt (fun v -> v.vmem == mem) t.views with
    | Some v ->
        t.views <- v :: List.filter (fun w -> w != v) t.views;
        t.cur <- v
    | None ->
        let v = new_view mem in
        t.views <- v :: List.filteri (fun i _ -> i < max_views - 1) t.views;
        t.cur <- v

(* O(pages patched): bump the page generations; every cached decode entry
   and translation block overlapping a bumped page fails its stamp check on
   next use, in every view (stamps are taken from the shared table). *)
let invalidate_code t ~addr ~len =
  if !Obs.enabled then Obs.emit (Obs.Tb_invalidate { addr; len });
  Tblock.Gen.bump t.gens ~addr ~len;
  (* the epoch moves with every bump: stale blocks fail the one-compare
     fast check and fall back to the full stamp check (or re-translation),
     and every chain link established before the patch stops matching *)
  t.code_epoch <- t.code_epoch + 1

let icache_misses t =
  match t.icache with None -> 0 | Some ic -> Icache.misses ic

let set_profile t p = t.prof <- p
let profile t = t.prof
let retired t = t.retired
let vector_retired t = t.vector_retired
let indirect_retired t = t.indirect_retired
let cycles t = t.retired + t.cycles_extra
let charge t n = t.cycles_extra <- t.cycles_extra + n

let reset_counters t =
  t.retired <- 0;
  t.vector_retired <- 0;
  t.indirect_retired <- 0;
  t.cycles_extra <- 0

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

exception Efault of Fault.t

(* Raised (without a backtrace) by an inlined branch closure whose guard
   was taken: the closure has already set pc to the taken target and
   retired, so the catch site in [run_blocks] treats it as a normal block
   completion through the side exit. Payload-free so raising allocates
   nothing on the loop back edge. *)
exception Side_exit

(* ALU semantics live in {!Tir} now, shared between the interpreter, the
   closure compiler and the IR constant folder — a folded result is
   bit-identical to the step engine by construction. The hot closures
   below open-code their op (Add, Addw, shifts, ...) instead of calling
   [alu]: under dune's default profile every module is compiled
   [-opaque], so a call into another module is never inlined and boxes
   its [int64] arguments and result. Only the long tail goes through
   [alu]/[alui]. [sext32] is {!Tir.sext32} restated locally for the same
   reason. *)
let alu = Tir.alu
let alui = Tir.alui
let[@inline] sext32 v = Int64.shift_right (Int64.shift_left v 32) 32

(* Unsigned order is signed order on operands offset by 2^63. *)
let[@inline] ult (a : int64) (b : int64) =
  Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] branch_taken c (a : int64) (b : int64) =
  match c with
  | Inst.Beq -> a = b
  | Inst.Bne -> a <> b
  | Inst.Blt -> a < b
  | Inst.Bge -> a >= b
  | Inst.Bltu -> ult a b
  | Inst.Bgeu -> not (ult a b)

let addr_of v = Int64.to_int v
let page_mask = Memory.page_size - 1

(* 64-bit guest accesses through the page the TLB hands back: one
   [Memory.read_data]/[write_data] per access runs the same translation,
   permission check and hit/miss counters as [Memory.load_u64]/[store_u64]
   do for an in-page access, but the value moves between the page and the
   register file without an [Int64] box. Guest memory is little-endian.
   An access that crosses a page takes the [Memory] path, which raises the
   same [Violation] (address and access kind) at the same byte. *)
external bswap64 : int64 -> int64 = "%bswap_int64"

(* [off] must lie in [0, page_size - 8]. *)
let[@inline] page_get64 pg off =
  let v = bytes_get64u pg off in
  if Sys.big_endian then bswap64 v else v

let[@inline] page_set64 pg off v =
  bytes_set64u pg off (if Sys.big_endian then bswap64 v else v)

(* Each branch writes the register itself: binding the two branches' values
   to one variable first would make the in-page value boxed too. *)
let[@inline] load64 t rd addr =
  let m = t.cur.vmem in
  let off = addr land page_mask in
  if off <= page_mask - 7 then set_reg t rd (page_get64 (Memory.read_data m addr) off)
  else set_reg t rd (Memory.load_u64 m addr)

let[@inline] store64 t addr v =
  let m = t.cur.vmem in
  let off = addr land page_mask in
  if off <= page_mask - 7 then page_set64 (Memory.write_data m addr) off v
  else Memory.store_u64 m addr v

let load_value mem width unsigned addr =
  match (width, unsigned) with
  | Inst.B, false -> Int64.of_int (Encode.sext (Memory.load_u8 mem addr) 8)
  | Inst.B, true -> Int64.of_int (Memory.load_u8 mem addr)
  | Inst.H, false -> Int64.of_int (Encode.sext (Memory.load_u16 mem addr) 16)
  | Inst.H, true -> Int64.of_int (Memory.load_u16 mem addr)
  | Inst.W, false -> sext32 (Int64.of_int (Memory.load_u32 mem addr))
  | Inst.W, true -> Int64.of_int (Memory.load_u32 mem addr)
  | Inst.D, _ -> Memory.load_u64 mem addr

let store_value mem width addr v =
  match width with
  | Inst.B -> Memory.store_u8 mem addr (Int64.to_int v land 0xFF)
  | Inst.H -> Memory.store_u16 mem addr (Int64.to_int v land 0xFFFF)
  | Inst.W -> Memory.store_u32 mem addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  | Inst.D -> Memory.store_u64 mem addr v

(* Vector element accessors at the current sew. *)

let vget t vr i =
  let base = (Reg.v_to_int vr * t.vlen) in
  match t.vsew with
  | Inst.E64 -> Bytes.get_int64_le t.vregs (base + (i * 8))
  | Inst.E32 -> Int64.of_int32 (Bytes.get_int32_le t.vregs (base + (i * 4)))
  | Inst.E16 -> Int64.of_int (Encode.sext (Bytes.get_uint16_le t.vregs (base + (i * 2))) 16)
  | Inst.E8 -> Int64.of_int (Encode.sext (Bytes.get_uint8 t.vregs (base + i)) 8)

let vset t vr i v =
  let base = (Reg.v_to_int vr * t.vlen) in
  match t.vsew with
  | Inst.E64 -> Bytes.set_int64_le t.vregs (base + (i * 8)) v
  | Inst.E32 -> Bytes.set_int32_le t.vregs (base + (i * 4)) (Int64.to_int32 v)
  | Inst.E16 -> Bytes.set_uint16_le t.vregs (base + (i * 2)) (Int64.to_int v land 0xFFFF)
  | Inst.E8 -> Bytes.set_uint8 t.vregs (base + i) (Int64.to_int v land 0xFF)

let vop_apply op acc a b =
  match op with
  | Inst.Vadd -> Int64.add a b
  | Inst.Vsub -> Int64.sub a b
  | Inst.Vmul -> Int64.mul a b
  | Inst.Vmacc -> Int64.add acc (Int64.mul a b)

let vlmax t sew = t.vlen / Inst.sew_bytes sew

(* Decode at [pc] through the current view's cache. Entries are validated
   against the page generations of the bytes they cover, so a patched range
   is simply re-decoded — [invalidate_code] never walks the cache. *)
let decode_fresh t pc =
  let lo = Memory.fetch_u16 t.cur.vmem pc in
  let needs_hi = lo land 0b11 = 0b11 && lo land 0b11111 <> 0b11111 in
  let hi = if needs_hi then Memory.fetch_u16 t.cur.vmem (pc + 2) else 0 in
  match Decode.decode ~lo ~hi with
  | Decode.Ok (i, n) ->
      Hashtbl.replace t.cur.cache pc
        (Cok (i, n, Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1)));
      (i, n)
  | Decode.Illegal reason ->
      (* stamp only the bytes the verdict was computed from: the high
         parcel was fetched (and so depends on memory) only when the low
         parcel asked for it — stamping a fixed pc+3 would reach into a
         page that was never examined (possibly unmapped) *)
      let hi = if needs_hi then pc + 3 else pc + 1 in
      Hashtbl.replace t.cur.cache pc
        (Cill (reason, hi, Tblock.Gen.stamp t.gens ~lo:pc ~hi));
      raise (Efault (Fault.Illegal_instruction { pc; reason }))

let decode_at t pc =
  match Hashtbl.find_opt t.cur.cache pc with
  | Some (Cok (i, n, st)) when Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1) = st ->
      (i, n)
  | Some (Cill (reason, hi, st)) when Tblock.Gen.stamp t.gens ~lo:pc ~hi = st ->
      raise (Efault (Fault.Illegal_instruction { pc; reason }))
  | Some _ | None -> decode_fresh t pc

let fetch_decode t = decode_at t t.pc

(* Execute one decoded instruction; updates pc; may raise Efault.
   Returns the [stop] if the instruction is a control event the caller's
   handlers must see. *)
type event = Enone | Eebreak of int | Eecall | Echeck of Reg.t * Reg.t * int

let jump_aligned t target =
  if target land 1 <> 0 || (target land 3 <> 0 && not (Ext.mem Ext.C t.isa)) then
    raise (Efault (Fault.Misaligned_fetch { pc = t.pc; target }));
  t.pc <- target

let exec t inst size =
  let next = t.pc + size in
  match inst with
  | Inst.Lui (rd, imm20) ->
      set_reg t rd (Int64.of_int (imm20 lsl 12));
      t.pc <- next;
      Enone
  | Inst.Auipc (rd, imm20) ->
      set_reg t rd (Int64.of_int (t.pc + (imm20 lsl 12)));
      t.pc <- next;
      Enone
  | Inst.Jal (rd, off) ->
      set_reg t rd (Int64.of_int next);
      jump_aligned t (t.pc + off);
      Enone
  | Inst.Jalr (rd, rs1, imm) ->
      let target = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) land lnot 1 in
      set_reg t rd (Int64.of_int next);
      t.indirect_retired <- t.indirect_retired + 1;
      jump_aligned t target;
      Enone
  | Inst.Branch (c, rs1, rs2, off) ->
      if branch_taken c (get_reg t rs1) (get_reg t rs2) then jump_aligned t (t.pc + off)
      else t.pc <- next;
      Enone
  | Inst.Load { width; unsigned; rd; rs1; imm } ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) in
      set_reg t rd (load_value t.cur.vmem width unsigned addr);
      t.pc <- next;
      Enone
  | Inst.Store { width; rs2; rs1; imm } ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) in
      store_value t.cur.vmem width addr (get_reg t rs2);
      t.pc <- next;
      Enone
  | Inst.Op (op, rd, rs1, rs2) ->
      set_reg t rd (alu op (get_reg t rs1) (get_reg t rs2));
      t.pc <- next;
      Enone
  | Inst.Opi (op, rd, rs1, imm) ->
      set_reg t rd (alui op (get_reg t rs1) imm);
      t.pc <- next;
      Enone
  | Inst.Ecall -> Eecall
  | Inst.Ebreak -> Eebreak 4
  | Inst.C_nop ->
      t.pc <- next;
      Enone
  | Inst.C_ebreak -> Eebreak 2
  | Inst.C_addi (rd, imm) ->
      set_reg t rd (Int64.add (get_reg t rd) (Int64.of_int imm));
      t.pc <- next;
      Enone
  | Inst.C_li (rd, imm) ->
      set_reg t rd (Int64.of_int imm);
      t.pc <- next;
      Enone
  | Inst.C_mv (rd, rs2) ->
      set_reg t rd (get_reg t rs2);
      t.pc <- next;
      Enone
  | Inst.C_add (rd, rs2) ->
      set_reg t rd (Int64.add (get_reg t rd) (get_reg t rs2));
      t.pc <- next;
      Enone
  | Inst.C_j off ->
      jump_aligned t (t.pc + off);
      Enone
  | Inst.C_jr rs1 ->
      t.indirect_retired <- t.indirect_retired + 1;
      jump_aligned t (addr_of (get_reg t rs1) land lnot 1);
      Enone
  | Inst.C_jalr rs1 ->
      let target = addr_of (get_reg t rs1) land lnot 1 in
      t.indirect_retired <- t.indirect_retired + 1;
      set_reg t Reg.ra (Int64.of_int next);
      jump_aligned t target;
      Enone
  | Inst.C_beqz (rs1, off) ->
      if Int64.equal (get_reg t rs1) 0L then jump_aligned t (t.pc + off)
      else t.pc <- next;
      Enone
  | Inst.C_bnez (rs1, off) ->
      if Int64.equal (get_reg t rs1) 0L then t.pc <- next
      else jump_aligned t (t.pc + off);
      Enone
  | Inst.C_ld (rd, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      load64 t rd addr;
      t.pc <- next;
      Enone
  | Inst.C_sd (rs2, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      store64 t addr (get_reg t rs2);
      t.pc <- next;
      Enone
  | Inst.C_slli (rd, sh) ->
      set_reg t rd (Int64.shift_left (get_reg t rd) sh);
      t.pc <- next;
      Enone
  | Inst.C_lw (rd, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      set_reg t rd (sext32 (Int64.of_int (Memory.load_u32 t.cur.vmem addr)));
      t.pc <- next;
      Enone
  | Inst.C_sw (rs2, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      Memory.store_u32 t.cur.vmem addr
        (Int64.to_int (Int64.logand (get_reg t rs2) 0xFFFFFFFFL));
      t.pc <- next;
      Enone
  | Inst.C_lui (rd, imm) ->
      set_reg t rd (Int64.of_int (imm lsl 12));
      t.pc <- next;
      Enone
  | Inst.C_addiw (rd, imm) ->
      set_reg t rd (sext32 (Int64.add (get_reg t rd) (Int64.of_int imm)));
      t.pc <- next;
      Enone
  | Inst.C_andi (rd, imm) ->
      set_reg t rd (Int64.logand (get_reg t rd) (Int64.of_int imm));
      t.pc <- next;
      Enone
  | Inst.C_alu (op, rd, rs2) ->
      let a = get_reg t rd and b = get_reg t rs2 in
      set_reg t rd
        (match op with
        | Inst.Csub -> Int64.sub a b
        | Inst.Cxor -> Int64.logxor a b
        | Inst.Cor -> Int64.logor a b
        | Inst.Cand -> Int64.logand a b
        | Inst.Csubw -> sext32 (Int64.sub a b)
        | Inst.Caddw -> sext32 (Int64.add a b));
      t.pc <- next;
      Enone
  | Inst.Vsetvli (rd, rs1, sew) ->
      let vlmax = vlmax t sew in
      let avl =
        if Reg.equal rs1 Reg.x0 then
          if Reg.equal rd Reg.x0 then t.vl else vlmax
        else
          let v = get_reg t rs1 in
          if Int64.unsigned_compare v (Int64.of_int vlmax) > 0 then vlmax
          else Int64.to_int v
      in
      t.vsew <- sew;
      t.vl <- min avl vlmax;
      set_reg t rd (Int64.of_int t.vl);
      t.pc <- next;
      Enone
  | Inst.Vle (sew, vd, rs1) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vle sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let sz = Inst.sew_bytes sew in
      for i = 0 to t.vl - 1 do
        vset t vd i (load_value t.cur.vmem
                       (match sew with
                        | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
                        | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
                       false (base + (i * sz)))
      done;
      t.pc <- next;
      Enone
  | Inst.Vlse (sew, vd, rs1, rs2) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vlse sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let stride = Int64.to_int (get_reg t rs2) in
      for i = 0 to t.vl - 1 do
        vset t vd i
          (load_value t.cur.vmem
             (match sew with
              | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
              | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
             false (base + (i * stride)))
      done;
      t.pc <- next;
      Enone
  | Inst.Vse (sew, vs3, rs1) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vse sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let sz = Inst.sew_bytes sew in
      for i = 0 to t.vl - 1 do
        store_value t.cur.vmem
          (match sew with
           | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
           | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
          (base + (i * sz)) (vget t vs3 i)
      done;
      t.pc <- next;
      Enone
  | Inst.Vsse (sew, vs3, rs1, rs2) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vsse sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let stride = Int64.to_int (get_reg t rs2) in
      for i = 0 to t.vl - 1 do
        store_value t.cur.vmem
          (match sew with
           | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
           | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
          (base + (i * stride)) (vget t vs3 i)
      done;
      t.pc <- next;
      Enone
  | Inst.Vop_vv (op, vd, vs2, vs1) ->
      for i = 0 to t.vl - 1 do
        vset t vd i (vop_apply op (vget t vd i) (vget t vs2 i) (vget t vs1 i))
      done;
      t.pc <- next;
      Enone
  | Inst.Vop_vx (op, vd, vs2, rs1) ->
      let x = get_reg t rs1 in
      for i = 0 to t.vl - 1 do
        vset t vd i (vop_apply op (vget t vd i) (vget t vs2 i) x)
      done;
      t.pc <- next;
      Enone
  | Inst.Vmv_v_x (vd, rs1) ->
      let x = get_reg t rs1 in
      for i = 0 to t.vl - 1 do
        vset t vd i x
      done;
      t.pc <- next;
      Enone
  | Inst.Vmv_x_s (rd, vs2) ->
      set_reg t rd (vget t vs2 0);
      t.pc <- next;
      Enone
  | Inst.Vredsum (vd, vs2, vs1) ->
      let acc = ref (vget t vs1 0) in
      for i = 0 to t.vl - 1 do
        acc := Int64.add !acc (vget t vs2 i)
      done;
      vset t vd 0 !acc;
      t.pc <- next;
      Enone
  | Inst.Xcheck_jalr (rd, rs1, imm) ->
      let target = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) land lnot 1 in
      Echeck (rd, rs1, target)
  | Inst.P_add16 (rd, rs1, rs2) ->
      let a = get_reg t rs1 and b = get_reg t rs2 in
      let lane i =
        let sh = 16 * i in
        let sum =
          Int64.add
            (Int64.logand (Int64.shift_right_logical a sh) 0xFFFFL)
            (Int64.logand (Int64.shift_right_logical b sh) 0xFFFFL)
        in
        Int64.shift_left (Int64.logand sum 0xFFFFL) sh
      in
      set_reg t rd (Int64.logor (Int64.logor (lane 0) (lane 1)) (Int64.logor (lane 2) (lane 3)));
      t.pc <- next;
      Enone
  | Inst.P_smaqa (rd, rs1, rs2) ->
      let a = get_reg t rs1 and b = get_reg t rs2 in
      let byte v i =
        (* sign-extended byte lane i *)
        Int64.shift_right (Int64.shift_left v (56 - (8 * i))) 56
      in
      let acc = ref (get_reg t rd) in
      for i = 0 to 7 do
        acc := Int64.add !acc (Int64.mul (byte a i) (byte b i))
      done;
      set_reg t rd !acc;
      t.pc <- next;
      Enone

(* Fetch accounting + capability check + execution + retirement for one
   instruction. Shared by the slow path ([step], after a cache-backed
   decode) and the block engine (for decoded terminators). *)
let exec_retire t inst size =
  (match t.icache with
  | None -> ()
  | Some ic ->
      if not (Icache.access ic t.pc) then
        t.cycles_extra <- t.cycles_extra + t.costs.Costs.icache_miss;
      (* a fetch spanning two lines touches both *)
      if not (Icache.access ic (t.pc + size - 1)) then
        t.cycles_extra <- t.cycles_extra + t.costs.Costs.icache_miss);
  if not (Ext.supports t.isa inst) then
    raise
      (Efault
         (Fault.Illegal_instruction
            { pc = t.pc;
              reason =
                Printf.sprintf "extension %s not supported by this hart"
                  (match Ext.required inst with
                   | Some e -> Ext.ext_name e
                   | None -> "?") }));
  let ev = exec t inst size in
  t.retired <- t.retired + 1;
  (match Ext.required inst with
   | Some Ext.V ->
       t.vector_retired <- t.vector_retired + 1;
       t.cycles_extra <- t.cycles_extra + t.costs.Costs.vector_op - 1
   | Some _ | None -> ());
  (ev, size)

(* Deliver the outcome of one instruction to the handlers. *)
let dispatch ~handlers t thunk =
  let apply_action = function
    | Resume pc ->
        t.pc <- pc;
        None
    | Stop s -> Some s
  in
  match thunk () with
  | Enone, _ -> None
  | Eebreak sz, _ -> apply_action (handlers.on_ebreak t ~pc:t.pc ~size:sz)
  | Eecall, size ->
      let a7 = get_reg t (Reg.of_int 17) in
      if Int64.equal a7 93L then Some (Exited (Int64.to_int (get_reg t Reg.a0)))
      else
        let pc0 = t.pc in
        (* advance past the ecall by default; handler may override. *)
        t.pc <- t.pc + size;
        apply_action (handlers.on_ecall t ~pc:pc0)
  | Echeck (rd, _, target), size ->
      let pc0 = t.pc in
      set_reg t rd (Int64.of_int (pc0 + size));
      apply_action (handlers.on_check t ~pc:pc0 ~rd ~target)
  | exception Efault f ->
      if !Metrics.enabled then Metrics.incr m_faults_raised;
      if !Obs.enabled then
        Obs.emit (Obs.Fault_raised { pc = Fault.pc f; cause = Fault.cause_name f });
      apply_action (handlers.on_fault t f)
  | exception Memory.Violation { addr; access } ->
      let f = Fault.Segfault { pc = t.pc; addr; access } in
      if !Metrics.enabled then Metrics.incr m_faults_raised;
      if !Obs.enabled then
        Obs.emit (Obs.Fault_raised { pc = t.pc; cause = Fault.cause_name f });
      apply_action (handlers.on_fault t f)

let step_dispatch ~handlers t =
  dispatch ~handlers t (fun () ->
      let inst, size = fetch_decode t in
      exec_retire t inst size)

let step ?(handlers = default_handlers) t =
  match t.prof with
  | None -> step_dispatch ~handlers t
  | Some p ->
      (* Profiled single step: classify the instruction up front (a decode
         cache hit on the non-fault path, since the dispatch re-decodes the
         same pc), bracket the dispatch with counter reads, and attribute
         the deltas — the same window the block engine accounts per block,
         here per instruction. *)
      let pc0 = t.pc in
      let cls =
        match decode_at t pc0 with
        | inst, _ -> Profile.class_code inst
        | exception Efault _ -> -1
        | exception Memory.Violation _ -> -1
      in
      Profile.step_begin p ~pc:pc0 ~cls;
      let r0 = t.retired and c0 = cycles t in
      let mem0 = t.cur.vmem in
      let tlb0 = Memory.tlb_misses_live mem0 in
      let ic0 = icache_misses t in
      let res = step_dispatch ~handlers t in
      Profile.step_end p ~retired:(t.retired - r0) ~cycles:(cycles t - c0)
        ~tlb:(Memory.tlb_misses_live mem0 - tlb0)
        ~icache:(icache_misses t - ic0)
        ~target:t.pc;
      res

(* Execute a block terminator without touching the decode cache. *)
let step_decoded ~handlers t inst size =
  dispatch ~handlers t (fun () -> exec_retire t inst size)

(* ------------------------------------------------------------------ *)
(* Translation-block engine                                            *)
(* ------------------------------------------------------------------ *)

let retire_scalar t = t.retired <- t.retired + 1

let retire_vector t =
  t.retired <- t.retired + 1;
  t.vector_retired <- t.vector_retired + 1;
  t.cycles_extra <- t.cycles_extra + t.costs.Costs.vector_op - 1

(* Superblock inlining only covers direct transfers whose (static) target
   passes the alignment check [exec] would perform — a misaligned target
   stays a terminator so the slow path raises the precise fault. *)
let target_aligned t target =
  target land 1 = 0 && (target land 3 = 0 || Ext.mem Ext.C t.isa)

(* Find-or-create the inline-cache site record for an indirect terminator
   at [pc] in the current view. The record is captured by the terminator
   closure at translation time and shared by every translation of the site
   (re-translation after invalidation, tier promotion), so the learned
   targets survive block churn; only the per-target block links are
   re-validated, through the usual epoch guard. *)
let ic_for t pc =
  match Hashtbl.find_opt t.cur.ics pc with
  | Some s -> s
  | None ->
      let s =
        { site_pc = pc;
          site_target = -1;
          site_tb = None;
          site_poly = [||];
          site_mega = false;
          site_hits = 0;
          site_misses = 0 }
      in
      Hashtbl.add t.cur.ics pc s;
      s

(* Recompile-plan lookup for a branch at [pc]; a plan holds at most the
   branches of one block, so a list scan is fine at translation time. *)
let rec relayout_of relayout pc =
  match relayout with
  | [] -> None
  | (p, flip) :: tl -> if p = pc then Some flip else relayout_of tl pc

(* 32-bit sign extension of a [0, 2^32) int in native arithmetic. *)
let[@inline] sext32_int v = (v lxor 0x8000_0000) - 0x8000_0000

(* Write the sign-extended low 32 bits of a native [int] result: W-type ops
   are exact in native [int], because the truncated result only depends on
   the operands' low 32 bits, which [Int64.to_int] (mod 2^63) preserves. *)
let[@inline] set_w32 t rd v =
  set_reg t rd (Int64.of_int (sext32_int (v land 0xFFFFFFFF)))

let[@inline] bool64 b = Int64.of_int (Bool.to_int b)

(* Compile one straight-line op to its effect closure — the IR emitter's
   optimized ops and {!compile_op}'s singly lowered instructions alike.
   Effective addresses are computed as [Int64.to_int base + off] (equal to
   the Int64 sum modulo 2^63, which is all an address is). Fault-capable
   ops write their own pc first so a fault reports the exact instruction;
   pure ops never touch pc. No closure allocates, except the long-tail ALU
   ops that call {!Tir.alu} and a 64-bit access that crosses a page. *)
let emit_effect (o : Tir.op) : t -> unit =
  let pc = o.Tir.opc in
  match o.Tir.k with
  | Tir.Kdead -> fun _ -> ()
  | Tir.Kconst (rd, v) -> fun t -> set_reg t rd v
  | Tir.Kmv (rd, rs) -> fun t -> set_reg t rd (get_reg t rs)
  | Tir.Kalu (op, rd, r1, r2) -> (
      match op with
      | Inst.Add -> fun t -> set_reg t rd (Int64.add (get_reg t r1) (get_reg t r2))
      | Inst.Sub -> fun t -> set_reg t rd (Int64.sub (get_reg t r1) (get_reg t r2))
      | Inst.And ->
          fun t -> set_reg t rd (Int64.logand (get_reg t r1) (get_reg t r2))
      | Inst.Or -> fun t -> set_reg t rd (Int64.logor (get_reg t r1) (get_reg t r2))
      | Inst.Xor ->
          fun t -> set_reg t rd (Int64.logxor (get_reg t r1) (get_reg t r2))
      | Inst.Sll ->
          fun t ->
            let sh = Int64.to_int (get_reg t r2) land 63 in
            set_reg t rd (Int64.shift_left (get_reg t r1) sh)
      | Inst.Srl ->
          fun t ->
            let sh = Int64.to_int (get_reg t r2) land 63 in
            set_reg t rd (Int64.shift_right_logical (get_reg t r1) sh)
      | Inst.Sra ->
          fun t ->
            let sh = Int64.to_int (get_reg t r2) land 63 in
            set_reg t rd (Int64.shift_right (get_reg t r1) sh)
      | Inst.Slt -> fun t -> set_reg t rd (bool64 (get_reg t r1 < get_reg t r2))
      | Inst.Sltu -> fun t -> set_reg t rd (bool64 (ult (get_reg t r1) (get_reg t r2)))
      | Inst.Mul -> fun t -> set_reg t rd (Int64.mul (get_reg t r1) (get_reg t r2))
      | Inst.Addw ->
          fun t ->
            set_w32 t rd (Int64.to_int (get_reg t r1) + Int64.to_int (get_reg t r2))
      | Inst.Subw ->
          fun t ->
            set_w32 t rd (Int64.to_int (get_reg t r1) - Int64.to_int (get_reg t r2))
      | Inst.Mulw ->
          fun t ->
            set_w32 t rd (Int64.to_int (get_reg t r1) * Int64.to_int (get_reg t r2))
      | Inst.Sllw ->
          fun t ->
            let sh = Int64.to_int (get_reg t r2) land 31 in
            set_w32 t rd (Int64.to_int (get_reg t r1) lsl sh)
      | Inst.Srlw ->
          fun t ->
            let sh = Int64.to_int (get_reg t r2) land 31 in
            set_w32 t rd ((Int64.to_int (get_reg t r1) land 0xFFFFFFFF) lsr sh)
      | Inst.Sraw ->
          fun t ->
            let sh = Int64.to_int (get_reg t r2) land 31 in
            let v = sext32_int (Int64.to_int (get_reg t r1) land 0xFFFFFFFF) in
            set_reg t rd (Int64.of_int (v asr sh))
      | _ -> fun t -> set_reg t rd (Tir.alu op (get_reg t r1) (get_reg t r2)))
  | Tir.Kaluc (op, rd, r1, c) -> (
      match op with
      | Inst.Add -> fun t -> set_reg t rd (Int64.add (get_reg t r1) c)
      | Inst.Sub -> fun t -> set_reg t rd (Int64.sub (get_reg t r1) c)
      | Inst.And -> fun t -> set_reg t rd (Int64.logand (get_reg t r1) c)
      | Inst.Or -> fun t -> set_reg t rd (Int64.logor (get_reg t r1) c)
      | Inst.Xor -> fun t -> set_reg t rd (Int64.logxor (get_reg t r1) c)
      | Inst.Mul -> fun t -> set_reg t rd (Int64.mul (get_reg t r1) c)
      | Inst.Addw ->
          let ci = Int64.to_int c in
          fun t -> set_w32 t rd (Int64.to_int (get_reg t r1) + ci)
      | Inst.Subw ->
          let ci = Int64.to_int c in
          fun t -> set_w32 t rd (Int64.to_int (get_reg t r1) - ci)
      | Inst.Mulw ->
          let ci = Int64.to_int c in
          fun t -> set_w32 t rd (Int64.to_int (get_reg t r1) * ci)
      | _ -> fun t -> set_reg t rd (Tir.alu op (get_reg t r1) c))
  | Tir.Kalui (op, rd, r1, imm) -> (
      match op with
      | Inst.Addi ->
          let c = Int64.of_int imm in
          fun t -> set_reg t rd (Int64.add (get_reg t r1) c)
      | Inst.Andi ->
          let c = Int64.of_int imm in
          fun t -> set_reg t rd (Int64.logand (get_reg t r1) c)
      | Inst.Ori ->
          let c = Int64.of_int imm in
          fun t -> set_reg t rd (Int64.logor (get_reg t r1) c)
      | Inst.Xori ->
          let c = Int64.of_int imm in
          fun t -> set_reg t rd (Int64.logxor (get_reg t r1) c)
      | Inst.Slti ->
          let c = Int64.of_int imm in
          fun t -> set_reg t rd (bool64 (get_reg t r1 < c))
      | Inst.Sltiu ->
          let c = Int64.of_int imm in
          fun t -> set_reg t rd (bool64 (ult (get_reg t r1) c))
      | Inst.Slli ->
          let sh = imm land 63 in
          fun t -> set_reg t rd (Int64.shift_left (get_reg t r1) sh)
      | Inst.Srli ->
          let sh = imm land 63 in
          fun t -> set_reg t rd (Int64.shift_right_logical (get_reg t r1) sh)
      | Inst.Srai ->
          let sh = imm land 63 in
          fun t -> set_reg t rd (Int64.shift_right (get_reg t r1) sh)
      | Inst.Addiw -> fun t -> set_w32 t rd (Int64.to_int (get_reg t r1) + imm)
      | Inst.Slliw ->
          let sh = imm land 31 in
          fun t -> set_w32 t rd (Int64.to_int (get_reg t r1) lsl sh)
      | Inst.Srliw ->
          let sh = imm land 31 in
          fun t -> set_w32 t rd ((Int64.to_int (get_reg t r1) land 0xFFFFFFFF) lsr sh)
      | Inst.Sraiw ->
          let sh = imm land 31 in
          fun t ->
            let v = sext32_int (Int64.to_int (get_reg t r1) land 0xFFFFFFFF) in
            set_reg t rd (Int64.of_int (v asr sh)))
  | Tir.Kload { width; unsigned; rd; base; off } -> (
      match (width, unsigned) with
      | Inst.D, _ ->
          fun t ->
            t.pc <- pc;
            load64 t rd (Int64.to_int (get_reg t base) + off)
      | Inst.W, false ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            set_reg t rd (Int64.of_int (sext32_int (Memory.load_u32 t.cur.vmem addr)))
      | Inst.W, true ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            set_reg t rd (Int64.of_int (Memory.load_u32 t.cur.vmem addr))
      | Inst.H, false ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            set_reg t rd (Int64.of_int (Encode.sext (Memory.load_u16 t.cur.vmem addr) 16))
      | Inst.H, true ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            set_reg t rd (Int64.of_int (Memory.load_u16 t.cur.vmem addr))
      | Inst.B, false ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            set_reg t rd (Int64.of_int (Encode.sext (Memory.load_u8 t.cur.vmem addr) 8))
      | Inst.B, true ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            set_reg t rd (Int64.of_int (Memory.load_u8 t.cur.vmem addr)))
  | Tir.Kloadc { width; unsigned; rd; addr } -> (
      match (width, unsigned) with
      | Inst.D, _ ->
          fun t ->
            t.pc <- pc;
            load64 t rd addr
      | Inst.W, false ->
          fun t ->
            t.pc <- pc;
            set_reg t rd (Int64.of_int (sext32_int (Memory.load_u32 t.cur.vmem addr)))
      | Inst.W, true ->
          fun t ->
            t.pc <- pc;
            set_reg t rd (Int64.of_int (Memory.load_u32 t.cur.vmem addr))
      | Inst.H, false ->
          fun t ->
            t.pc <- pc;
            set_reg t rd (Int64.of_int (Encode.sext (Memory.load_u16 t.cur.vmem addr) 16))
      | Inst.H, true ->
          fun t ->
            t.pc <- pc;
            set_reg t rd (Int64.of_int (Memory.load_u16 t.cur.vmem addr))
      | Inst.B, false ->
          fun t ->
            t.pc <- pc;
            set_reg t rd (Int64.of_int (Encode.sext (Memory.load_u8 t.cur.vmem addr) 8))
      | Inst.B, true ->
          fun t ->
            t.pc <- pc;
            set_reg t rd (Int64.of_int (Memory.load_u8 t.cur.vmem addr)))
  | Tir.Kstore { width; rs2; base; off } -> (
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t (Int64.to_int (get_reg t base) + off) (get_reg t rs2)
      | Inst.W ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            Memory.store_u32 t.cur.vmem addr (Int64.to_int (get_reg t rs2) land 0xFFFFFFFF)
      | Inst.H ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            Memory.store_u16 t.cur.vmem addr (Int64.to_int (get_reg t rs2) land 0xFFFF)
      | Inst.B ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (get_reg t base) + off in
            Memory.store_u8 t.cur.vmem addr (Int64.to_int (get_reg t rs2) land 0xFF))
  | Tir.Kstorec { width; rs2; addr } -> (
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t addr (get_reg t rs2)
      | Inst.W ->
          fun t ->
            t.pc <- pc;
            Memory.store_u32 t.cur.vmem addr (Int64.to_int (get_reg t rs2) land 0xFFFFFFFF)
      | Inst.H ->
          fun t ->
            t.pc <- pc;
            Memory.store_u16 t.cur.vmem addr (Int64.to_int (get_reg t rs2) land 0xFFFF)
      | Inst.B ->
          fun t ->
            t.pc <- pc;
            Memory.store_u8 t.cur.vmem addr (Int64.to_int (get_reg t rs2) land 0xFF))
  | Tir.Kstorev { width; v; base; off } -> (
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t (Int64.to_int (get_reg t base) + off) v
      | Inst.W ->
          let vi = Int64.to_int v land 0xFFFFFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u32 t.cur.vmem (Int64.to_int (get_reg t base) + off) vi
      | Inst.H ->
          let vi = Int64.to_int v land 0xFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u16 t.cur.vmem (Int64.to_int (get_reg t base) + off) vi
      | Inst.B ->
          let vi = Int64.to_int v land 0xFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u8 t.cur.vmem (Int64.to_int (get_reg t base) + off) vi)
  | Tir.Kstorecv { width; v; addr } -> (
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t addr v
      | Inst.W ->
          let vi = Int64.to_int v land 0xFFFFFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u32 t.cur.vmem addr vi
      | Inst.H ->
          let vi = Int64.to_int v land 0xFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u16 t.cur.vmem addr vi
      | Inst.B ->
          let vi = Int64.to_int v land 0xFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u8 t.cur.vmem addr vi)

(* Compile one instruction for the fast path. Event instructions and
   indirect/linking control flow terminate the block (they stay decoded and
   run through {!step_decoded}, so handler delivery and fault pcs are
   identical to the slow path). Direct jumps that do not link ra and
   conditional branches are inlined when [sb] (the translation's tier has
   superblock shape) is set: the jump closure transfers to its static
   target, the branch closure either falls through or leaves the block
   through {!Side_exit} — in both cases pc is exact at every block exit,
   so faults and chaining see the same machine states as the step
   engine. Anything the current capability set
   cannot execute stops the block so the slow path raises the precise
   illegal-instruction fault. Every compiled closure replicates [exec]
   exactly and then retires, with operands partially evaluated at
   translation time. [relayout] is the translation's recompile plan:
   [(branch pc, flip)] pairs from the observed exit profile — [flip =
   false] cuts the block at the branch (terminator), [flip = true] inverts
   it and continues decoding at the taken target; empty outside
   recompilation.

   pc is maintained lazily: straight-line closures that cannot fault do
   not write [t.pc] at all; fault-capable closures (memory accesses, the
   interpreter fallback) set their own pc first so a raised fault reports
   the exact faulting instruction; control transfers write their target.
   [run_blocks] re-synchronizes pc at every dispatch end (terminator pc,
   fall-through, or the fuel-limited resume point), so pc is exact at
   every point the machine state is observable. *)
let compile_op t ~sb ~relayout ~pc inst size =
  match inst with
  | Inst.Ecall | Inst.Ebreak | Inst.C_ebreak | Inst.Xcheck_jalr _ ->
      Tblock.Term
  | Inst.Jalr (rd, rs1, imm) ->
      (* with C in the capability set a jalr target (bit 0 cleared by the
         ISA) can never misalign, so the whole instruction is event-free:
         compile it to a direct terminator closure and skip the
         interpreter's decode-exec-dispatch path. Without C it can raise
         the misaligned-target fault and must stay on the event path. *)
      if not (Ext.mem Ext.C t.isa) then Tblock.Term
      else
        let im = Int64.of_int imm in
        let link = Int64.of_int (pc + size) in
        if t.tiered then
          (* the closure publishes its inline-cache site as it completes;
             the dispatch loop consumes it to predict the successor block
             (monomorphic slot → polymorphic table → block table). The
             [Some] cell is allocated once here, not per execution. *)
          let pic = Some (ic_for t pc) in
          Tblock.Term_fn
            (fun t ->
              (* target before link write: rd may alias rs1 *)
              let target =
                addr_of (Int64.add (get_reg t rs1) im) land lnot 1
              in
              set_reg t rd link;
              t.indirect_retired <- t.indirect_retired + 1;
              t.pc <- target;
              retire_scalar t;
              t.pending_ic <- pic)
        else
          Tblock.Term_fn
            (fun t ->
              (* target before link write: rd may alias rs1 *)
              let target =
                addr_of (Int64.add (get_reg t rs1) im) land lnot 1
              in
              set_reg t rd link;
              t.indirect_retired <- t.indirect_retired + 1;
              t.pc <- target;
              retire_scalar t)
  | Inst.C_jr rs1 ->
      if not (Ext.mem Ext.C t.isa) then Tblock.Term
      else if t.tiered then
        let pic = Some (ic_for t pc) in
        Tblock.Term_fn
          (fun t ->
            t.indirect_retired <- t.indirect_retired + 1;
            t.pc <- addr_of (get_reg t rs1) land lnot 1;
            retire_scalar t;
            t.pending_ic <- pic)
      else
        Tblock.Term_fn
          (fun t ->
            t.indirect_retired <- t.indirect_retired + 1;
            t.pc <- addr_of (get_reg t rs1) land lnot 1;
            retire_scalar t)
  | Inst.C_jalr rs1 ->
      if not (Ext.mem Ext.C t.isa) then Tblock.Term
      else
        let link = Int64.of_int (pc + size) in
        if t.tiered then
          let pic = Some (ic_for t pc) in
          Tblock.Term_fn
            (fun t ->
              (* target before the ra write: rs1 may be ra *)
              let target = addr_of (get_reg t rs1) land lnot 1 in
              t.indirect_retired <- t.indirect_retired + 1;
              set_reg t Reg.ra link;
              t.pc <- target;
              retire_scalar t;
              t.pending_ic <- pic)
        else
          Tblock.Term_fn
            (fun t ->
              (* target before the ra write: rs1 may be ra *)
              let target = addr_of (get_reg t rs1) land lnot 1 in
              t.indirect_retired <- t.indirect_retired + 1;
              set_reg t Reg.ra link;
              t.pc <- target;
              retire_scalar t)
  | Inst.Jal (rd, off) ->
      (* jal linking ra is a call: kept as a terminator so the profiler's
         shadow call stack sees it; any other link register is inlined *)
      let target = pc + off in
      if not (target_aligned t target) then Tblock.Term
      else if (not sb) || Reg.equal rd Reg.ra then
        (* calls (and tier-1 jumps) end the block, but the
           aligned direct transfer itself is event-free: run it as a
           terminator closure *)
        let link = Int64.of_int (pc + size) in
        Tblock.Term_fn
          (fun t ->
            set_reg t rd link;
            t.pc <- target;
            retire_scalar t)
      else
        let link = Int64.of_int (pc + size) in
        Tblock.Jump
          ( (fun t ->
              set_reg t rd link;
              t.pc <- target;
              retire_scalar t),
            target )
  | Inst.C_j off ->
      let target = pc + off in
      if not (Ext.supports t.isa inst) || not (target_aligned t target) then
        Tblock.Term
      else if not sb then
        Tblock.Term_fn
          (fun t ->
            t.pc <- target;
            retire_scalar t)
      else
        Tblock.Jump
          ( (fun t ->
              t.pc <- target;
              retire_scalar t),
            target )
  | Inst.Branch (c, rs1, rs2, off) ->
      (* backward-taken/forward-not-taken: a backward conditional branch is
         almost always a loop backedge and taken on nearly every iteration —
         inlining it would side-exit every time, so it stays a terminator
         (and chains through the link slots like any other block end); only
         forward branches, usually not taken, are worth inlining *)
      let target = pc + off in
      if not (target_aligned t target) then Tblock.Term
      else begin
        let fall = pc + size in
        let as_term () =
          (* loop backedge, tier-1 block, or a profile-guided cut:
             terminator, but both targets are static and aligned so it
             cannot fault — direct closure (chains through both link
             slots, never side-exits) *)
          Tblock.Term_fn
            (fun t ->
              if branch_taken c (get_reg t rs1) (get_reg t rs2) then
                t.pc <- target
              else t.pc <- fall;
              retire_scalar t)
        in
        match relayout_of relayout pc with
        | Some true when sb && off > 0 ->
            (* observed mostly-taken: trace layout — invert the guard so
               the hot taken path falls through into the rest of the block
               (decoding continues at the target); the now-cold
               fall-through leaves via the side exit *)
            Tblock.Jump
              ( (fun t ->
                  if branch_taken c (get_reg t rs1) (get_reg t rs2) then begin
                    t.pc <- target;
                    retire_scalar t
                  end
                  else begin
                    t.pc <- fall;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end),
                target )
        | Some _ -> as_term ()
        | None ->
            if (not sb) || off <= 0 then as_term ()
            else
              Tblock.Brcond
                (fun t ->
                  if branch_taken c (get_reg t rs1) (get_reg t rs2) then begin
                    t.pc <- target;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end
                  else retire_scalar t)
      end
  | Inst.C_beqz (rs1, off) ->
      let target = pc + off in
      if not (Ext.supports t.isa inst) || not (target_aligned t target) then
        Tblock.Term
      else begin
        let fall = pc + size in
        let as_term () =
          Tblock.Term_fn
            (fun t ->
              if Int64.equal (get_reg t rs1) 0L then t.pc <- target
              else t.pc <- fall;
              retire_scalar t)
        in
        match relayout_of relayout pc with
        | Some true when sb && off > 0 ->
            Tblock.Jump
              ( (fun t ->
                  if Int64.equal (get_reg t rs1) 0L then begin
                    t.pc <- target;
                    retire_scalar t
                  end
                  else begin
                    t.pc <- fall;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end),
                target )
        | Some _ -> as_term ()
        | None ->
            if (not sb) || off <= 0 then as_term ()
            else
              Tblock.Brcond
                (fun t ->
                  if Int64.equal (get_reg t rs1) 0L then begin
                    t.pc <- target;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end
                  else retire_scalar t)
      end
  | Inst.C_bnez (rs1, off) ->
      let target = pc + off in
      if not (Ext.supports t.isa inst) || not (target_aligned t target) then
        Tblock.Term
      else begin
        let fall = pc + size in
        let as_term () =
          Tblock.Term_fn
            (fun t ->
              if Int64.equal (get_reg t rs1) 0L then t.pc <- fall
              else t.pc <- target;
              retire_scalar t)
        in
        match relayout_of relayout pc with
        | Some true when sb && off > 0 ->
            Tblock.Jump
              ( (fun t ->
                  if Int64.equal (get_reg t rs1) 0L then begin
                    t.pc <- fall;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end
                  else begin
                    t.pc <- target;
                    retire_scalar t
                  end),
                target )
        | Some _ -> as_term ()
        | None ->
            if (not sb) || off <= 0 then as_term ()
            else
              Tblock.Brcond
                (fun t ->
                  if Int64.equal (get_reg t rs1) 0L then retire_scalar t
                  else begin
                    t.pc <- target;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end)
      end
  | _ -> (
      if not (Ext.supports t.isa inst) then Tblock.Stop
      else
        match Tir.lower ~pc inst size with
        | Some o ->
            (* a plain straight-line instruction: the closure the IR
               emitter builds for the same op, leaving the retired counter
               to the dispatch loop *)
            Tblock.Op (emit_effect o)
        | None ->
            (* vector / packed-SIMD and other rare straight-line
               instructions: reuse the interpreter dispatch (they can only
               produce [Enone] — events all terminate blocks) and retire
               themselves *)
            let retire =
              if Ext.required inst = Some Ext.V then retire_vector else retire_scalar
            in
            Tblock.Op_self
              (fun t ->
                t.pc <- pc;
                (match exec t inst size with
                | Enone -> ()
                | Eebreak _ | Eecall | Echeck _ -> assert false);
                retire t))

(* ------------------------------------------------------------------ *)
(* IR emission                                                         *)
(* ------------------------------------------------------------------ *)

(* Whether the op after a load into [x] is a read-modify-write middle: a
   pure ALU op of the form [x <- x op _] (or [x <- _ op x]). *)
let rmw_middle (k : Tir.kind) x =
  match k with
  | Tir.Kalu (_, rd, r1, r2) -> Reg.equal rd x && (Reg.equal r1 x || Reg.equal r2 x)
  | Tir.Kaluc (_, rd, r1, _) | Tir.Kalui (_, rd, r1, _) ->
      Reg.equal rd x && Reg.equal r1 x
  | _ -> false

(* Emit one optimized straight-line run as execution units:

   - a maximal run of pure (non-fault-capable) ops becomes ONE unit —
     sound because nothing inside it is observable (no faults, no side
     exits; a fuel split lands on unit boundaries or replays the whole
     unit through the interpreter), which is also what makes the
     dead-write kills inside it invisible. Dead ops cost nothing at run
     time (no closure at all), and runs of folded constants collapse into
     single multi-register writes;
   - [load; alu; store] to one address (the classic in-memory
     read-modify-write) becomes one self-retiring unit computing the
     address once in native arithmetic;
   - adjacent 8-byte loads (or stores) off the same base register become
     one unit performing a single TLB check when both land on one page —
     the second access reuses the first one's page bytes (see
     Memory.read_data), with a guarded fallback for page-crossing pairs.

   Retirement: pure-segment units leave crediting to the dispatch loop
   ([eself = false]); memory-pattern units retire internally at the same
   points the step engine would, so partial progress at a fault is
   bit-identical. *)
(* The unit builder below is deliberately split from the optimizer pass: a
   fresh translation runs [Tir.optimize] first ({!emit_run}), while plan
   replay ({!seed_plan}) feeds persisted post-optimize ops straight into
   [emit_units] — the builder reads only the op kinds, so re-emitting a
   recorded run reconstructs the original execution units without paying
   for the passes again. *)
let emit_units ir_units tlb_elided (ops : Tir.op array) =
  let n = Array.length ops in
  let out = ref [] and nout = ref 0 in
  let push ?fuse efn ewidth eself =
    out := { Tblock.efn; ewidth; eself } :: !out;
    incr nout;
    match fuse with
    | Some (pc, kind) when !Obs.enabled ->
        Obs.emit (Obs.Tb_fuse { pc; kind })
    | _ -> ()
  in
  let i = ref 0 in
  while !i < n do
    let o = ops.(!i) in
    if not (Tir.faultable o.Tir.k) then begin
      (* maximal pure segment [i, j) *)
      let j = ref (!i + 1) in
      while !j < n && not (Tir.faultable ops.(!j).Tir.k) do incr j done;
      let width = !j - !i in
      (* build the effect list, skipping dead ops and merging constant
         runs into single multi-register writes *)
      let effs = ref [] and neffs = ref 0 in
      let k = ref !i in
      while !k < !j do
        (match ops.(!k).Tir.k with
        | Tir.Kdead -> incr k
        | Tir.Kconst _ ->
            let c0 = !k in
            let c = ref !k in
            while
              !c < !j
              && match ops.(!c).Tir.k with Tir.Kconst _ | Tir.Kdead -> true | _ -> false
            do
              incr c
            done;
            (* collect the constants in the [c0, c) stretch, as register
               file offsets *)
            let rds = ref [] and vals = ref [] and nc = ref 0 in
            for x = c0 to !c - 1 do
              match ops.(x).Tir.k with
              | Tir.Kconst (rd, v) ->
                  rds := ((rd :> int) lsl 3) :: !rds;
                  vals := v :: !vals;
                  incr nc
              | _ -> ()
            done;
            (match (!rds, !vals) with
            | [ r1 ], [ v1 ] ->
                effs := (fun t -> bytes_set64u t.xregs r1 v1) :: !effs
            | [ r2; r1 ], [ v2; v1 ] ->
                effs :=
                  (fun t ->
                    bytes_set64u t.xregs r1 v1;
                    bytes_set64u t.xregs r2 v2)
                  :: !effs
            | _ ->
                let rds = Array.of_list (List.rev !rds) in
                let vals = Array.of_list (List.rev !vals) in
                let m = Array.length rds in
                effs :=
                  (fun t ->
                    for x = 0 to m - 1 do
                      bytes_set64u t.xregs (Array.unsafe_get rds x)
                        (Array.unsafe_get vals x)
                    done)
                  :: !effs);
            if !nc > 0 then incr neffs;
            k := !c
        | _ ->
            effs := emit_effect ops.(!k) :: !effs;
            incr neffs;
            incr k)
      done;
      let efn =
        match !effs with
        | [] -> fun _ -> ()
        | [ f ] -> f
        | [ f2; f1 ] ->
            fun t ->
              f1 t;
              f2 t
        | l ->
            let fs = Array.of_list (List.rev l) in
            let m = Array.length fs in
            fun t ->
              for x = 0 to m - 1 do
                (Array.unsafe_get fs x) t
              done
      in
      push ?fuse:(if width > 1 then Some (o.Tir.opc, "pure_run") else None) efn width false;
      i := !j
    end
    else begin
      (* fault-capable op: try the memory patterns *)
      let consumed = ref 0 in
      (match o.Tir.k with
      | Tir.Kload { width = (Inst.D | Inst.W) as w; unsigned = false; rd = x; base = b; off }
        when !i + 2 < n && Reg.to_int x <> 0 && not (Reg.equal x b)
             && rmw_middle ops.(!i + 1).Tir.k x -> (
          match ops.(!i + 2).Tir.k with
          | Tir.Kstore { width = w2; rs2; base = b2; off = off2 }
            when w2 = w && Reg.equal rs2 x && Reg.equal b2 b && off2 = off ->
              (* the middle op runs as its own effect closure between the
                 load into [x] and the store of [x]: the value stays in
                 the register file throughout *)
              let pc1 = o.Tir.opc and pc3 = ops.(!i + 2).Tir.opc in
              let mid = emit_effect ops.(!i + 1) in
              let efn =
                match w with
                | Inst.D ->
                    fun t ->
                      t.pc <- pc1;
                      let a = Int64.to_int (get_reg t b) + off in
                      load64 t x a;
                      mid t;
                      t.retired <- t.retired + 2;
                      t.pc <- pc3;
                      store64 t a (get_reg t x);
                      t.retired <- t.retired + 1
                | _ ->
                    fun t ->
                      t.pc <- pc1;
                      let m = t.cur.vmem in
                      let a = Int64.to_int (get_reg t b) + off in
                      set_reg t x (Int64.of_int (sext32_int (Memory.load_u32 m a)));
                      mid t;
                      t.retired <- t.retired + 2;
                      t.pc <- pc3;
                      Memory.store_u32 m a (Int64.to_int (get_reg t x) land 0xFFFFFFFF);
                      t.retired <- t.retired + 1
              in
              push ~fuse:(pc1, "rmw") efn 3 true;
              consumed := 3
          | _ -> ())
      | _ -> ());
      if !consumed = 0 then begin
        match (o.Tir.k, if !i + 1 < n then Some ops.(!i + 1).Tir.k else None) with
        | ( Tir.Kload { width = Inst.D; rd = r1; base = b; off = o1; _ },
            Some (Tir.Kload { width = Inst.D; rd = r2; base = b2; off = o2; _ }) )
          when Reg.equal b b2 && not (Reg.equal r1 b) ->
            (* paired 8-byte loads off one base: one TLB check when both
               land on the same page *)
            let pc1 = o.Tir.opc and pc2 = ops.(!i + 1).Tir.opc in
            let d = o2 - o1 in
            let efn t =
              t.pc <- pc1;
              let m = t.cur.vmem in
              let a1 = Int64.to_int (get_reg t b) + o1 in
              let off1 = a1 land page_mask in
              let off2 = off1 + d in
              if off1 + 8 <= Memory.page_size && off2 >= 0 && off2 + 8 <= Memory.page_size
              then begin
                let pg = Memory.read_data m a1 in
                set_reg t r1 (page_get64 pg off1);
                set_reg t r2 (page_get64 pg off2);
                t.retired <- t.retired + 2
              end
              else begin
                load64 t r1 a1;
                t.retired <- t.retired + 1;
                t.pc <- pc2;
                load64 t r2 (Int64.to_int (get_reg t b) + o2);
                t.retired <- t.retired + 1
              end
            in
            push ~fuse:(pc1, "ld_pair") efn 2 true;
            incr tlb_elided;
            consumed := 2
        | ( Tir.Kstore { width = Inst.D; rs2 = r1; base = b; off = o1 },
            Some (Tir.Kstore { width = Inst.D; rs2 = r2; base = b2; off = o2 }) )
          when Reg.equal b b2 ->
            let pc1 = o.Tir.opc and pc2 = ops.(!i + 1).Tir.opc in
            let d = o2 - o1 in
            let efn t =
              t.pc <- pc1;
              let m = t.cur.vmem in
              let a1 = Int64.to_int (get_reg t b) + o1 in
              let off1 = a1 land page_mask in
              let off2 = off1 + d in
              if off1 + 8 <= Memory.page_size && off2 >= 0 && off2 + 8 <= Memory.page_size
              then begin
                let pg = Memory.write_data m a1 in
                page_set64 pg off1 (get_reg t r1);
                page_set64 pg off2 (get_reg t r2);
                t.retired <- t.retired + 2
              end
              else begin
                store64 t a1 (get_reg t r1);
                t.retired <- t.retired + 1;
                t.pc <- pc2;
                store64 t (Int64.to_int (get_reg t b) + o2) (get_reg t r2);
                t.retired <- t.retired + 1
              end
            in
            push ~fuse:(pc1, "st_pair") efn 2 true;
            incr tlb_elided;
            consumed := 2
        | _ ->
            push (emit_effect o) 1 false;
            consumed := 1
      end;
      i := !i + !consumed
    end
  done;
  ir_units := !ir_units + !nout;
  List.rev !out

let emit_run t stats ir_units tlb_elided (ops : Tir.op array) =
  Tir.optimize t.ir_state stats ops;
  emit_units ir_units tlb_elided ops

(* The shape of a translation at [tier] on this machine: tier 1 is a
   straight-line block, tier 2 adds superblock formation, tier 3 adds the
   IR pipeline — capped at tier 2 by the icache model, whose per-fetch
   accounting needs per-instruction units. Returns [(superblocks, ir,
   effective tier)]. *)
let shape t ~tier =
  let sb = tier >= 2 in
  let ir = tier >= 3 && t.icache = None in
  (sb, ir, if ir then 3 else if sb then 2 else 1)

(* [shape]'s effective tier for tier 3, without the tuple: the promotion
   driver asks once per dispatch, which must not allocate. *)
let tier_cap t = if t.icache = None then 3 else 2

(* One [Tblock.translate] of [entry] with superblock shape [sb] under the
   recompile plan [relayout]: decoding goes through the view's decode
   cache, [lower] picks the IR-lowered instructions, every other one is
   compiled by [compile_op] (and shown to [on_compile]), and [emit] turns
   IR runs into execution units. Cold translation and plan replay differ
   only in those three callbacks. *)
let translate_with t ~sb ~relayout ~lower ~on_compile ~emit entry =
  Tblock.translate ~gens:t.gens ~epoch:t.code_epoch ~isa:t.isa
    ~decode:(fun pc ->
      match decode_at t pc with
      | d -> Some d
      | exception Efault _ -> None
      | exception Memory.Violation _ -> None)
    ~lower
    ~compile:(fun ~pc inst size ->
      let c = compile_op t ~sb ~relayout ~pc inst size in
      on_compile ~pc inst size c;
      c)
    ~emit entry

let translate_block ?(tier = 3) ?(relayout = []) t entry =
  let t0 = Unix.gettimeofday () in
  let stats = Tir.stats_create () in
  let ir_units = ref 0 and tlb_elided = ref 0 in
  let steps = ref [] in
  Tir.state_reset t.ir_state;
  (* the effective tier (after the engine's caps) is recorded on the block
     for the promotion driver and the profile report *)
  let sb, ir, etier = shape t ~tier in
  let b =
    translate_with t ~sb ~relayout
      ~lower:(fun ~pc inst size ->
        (* capability gating here: only instructions this hart can execute
           reach the IR; anything else falls through to [compile], whose
           legacy path stops the block with the precise fault semantics *)
        let r =
          if ir && Ext.supports t.isa inst then Tir.lower ~pc inst size
          else None
        in
        (* record the lower/compile decision positionally: the op records
           pushed here are the very ones the closures capture, so by
           export time their [k] fields hold the post-optimize kinds *)
        if t.rec_on then
          steps := (match r with Some op -> Slower op | None -> Scompile) :: !steps;
        r)
      ~on_compile:(fun ~pc inst size c ->
        (* maintain the translation-time register state across non-IR
           units: an inlined jal writes a known link value, interpreter
           and vector units have unknown register effects, inlined
           branches and jumps write nothing *)
        match c with
        | Tblock.Jump _ -> (
            match inst with
            | Inst.Jal (rd, _) ->
                Tir.state_learn t.ir_state rd (Int64.of_int (pc + size))
            | _ -> ())
        | Tblock.Op _ | Tblock.Op_self _ -> Tir.state_clobber t.ir_state
        | Tblock.Brcond _ | Tblock.Term | Tblock.Term_fn _ | Tblock.Stop -> ())
      ~emit:(fun ops -> emit_run t stats ir_units tlb_elided ops)
      entry
  in
  Tblock.set_tier b ~tier:etier ~relaid:(relayout <> []);
  if t.rec_on then
    Hashtbl.replace t.cur.skels entry
      { sk_steps = Array.of_list (List.rev !steps); sk_relayout = relayout };
  t.fused_pairs <- t.fused_pairs + b.Tblock.n_fused;
  if !ir_units > 0 then begin
    t.ir_blocks <- t.ir_blocks + 1;
    t.ir_units <- t.ir_units + !ir_units;
    t.ir_folded <- t.ir_folded + stats.Tir.s_folded;
    t.ir_dead <- t.ir_dead + stats.Tir.s_dead;
    t.ir_pc_elided <- t.ir_pc_elided + stats.Tir.s_pc_elided;
    t.ir_tlb_elided <- t.ir_tlb_elided + !tlb_elided;
    t.ir_cached <- t.ir_cached + stats.Tir.s_cached;
    if !Obs.enabled then
      Obs.emit
        (Obs.Tb_ir
           { entry;
             units = !ir_units;
             folded = stats.Tir.s_folded;
             dead = stats.Tir.s_dead;
             pc_elided = stats.Tir.s_pc_elided;
             tlb_elided = !tlb_elided;
             cached = stats.Tir.s_cached })
  end;
  t.translations <- t.translations + 1;
  if !Metrics.enabled then
    Metrics.observe m_translate_ns
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
  b

let publish_block t entry b =
  Hashtbl.replace t.cur.blocks entry b;
  if !Obs.enabled then begin
    Obs.emit (Obs.Tb_compile { entry; body = Tblock.body_length b });
    Obs.emit
      (Obs.Tb_superblock
         { entry;
           insts = Tblock.body_length b;
           pages = Array.length b.Tblock.pages;
           jumps = b.Tblock.n_jumps;
           exits = b.Tblock.n_branches;
           fused = b.Tblock.n_fused })
  end

(* Block-table probe at the current pc. [None] means the entry is still
   below the first tier threshold on a tiered machine: the caller must
   interpret one instruction instead of dispatching a block. Untiered
   machines translate on first touch at the top tier their flags allow,
   exactly the PR6 behavior. *)
let block_or_cold t =
  match Hashtbl.find_opt t.cur.blocks t.pc with
  | Some b when Tblock.revalidate t.gens ~isa:t.isa ~epoch:t.code_epoch b ->
      if !Obs.enabled then
        Obs.emit (Obs.Tb_hit { entry = t.pc; body = Tblock.body_length b });
      Some b
  | Some _ | None ->
      if not t.tiered then begin
        let b = translate_block t t.pc in
        publish_block t t.pc b;
        Some b
      end
      else begin
        let h =
          match Hashtbl.find_opt t.cur.heat t.pc with
          | Some r ->
              incr r;
              !r
          | None ->
              Hashtbl.add t.cur.heat t.pc (ref 1);
              1
        in
        if h < tier1_heat then None
        else begin
          Hashtbl.remove t.cur.heat t.pc;
          let b = translate_block ~tier:1 t t.pc in
          publish_block t t.pc b;
          Some b
        end
      end

(* Derive the recompile plan from a block's observed exit profile: for
   each inlined branch, the conditional taken rate is its side-exit count
   over the dispatches that actually reached it (dispatches minus the
   exits taken earlier in the block). Branches that contradict BTFN get
   cut (terminator) or, when lopsided enough, flipped (trace layout). *)
let relayout_plan b =
  let x = b.Tblock.xexits in
  if b.Tblock.hot <= 0 || Array.length x = 0 then []
  else begin
    let plan = ref [] in
    let reached = ref b.Tblock.hot in
    for u = 0 to Array.length x - 1 do
      let e = Array.unsafe_get x u in
      (* a superblock can wrap a loop and decode the same branch several
         times; late occurrences see only the few dispatches that survived
         every earlier exit, so their rates are noise. Keep the first
         (best-sampled) occurrence of each pc and ignore units whose
         sample is below the floor. *)
      if e > 0 && !reached >= relayout_min_sample then begin
        let rate = float_of_int e /. float_of_int !reached in
        if rate >= relayout_cut_rate then begin
          let ipc = b.Tblock.pcs.(b.Tblock.starts.(u)) in
          if not (List.mem_assoc ipc !plan) then
            plan := (ipc, rate >= relayout_flip_rate) :: !plan
        end
      end;
      reached := !reached - e
    done;
    List.rev !plan
  end

(* Replace a block with a higher-tier (or profile-relaid) translation of
   the same entry. The old block is retired — its epoch check can never
   pass again — and dropped from the table, so every chain link and
   inline-cache entry into it fails its guard on the next follow and
   re-resolves to the replacement. No global epoch bump: unrelated links
   stay intact. *)
let replace_block t b ~tier ~relayout =
  let entry = b.Tblock.entry in
  Tblock.retire b;
  Hashtbl.remove t.cur.blocks entry;
  let nb = translate_block ~tier ~relayout t entry in
  publish_block t entry nb;
  nb

(* Hotness driver, run once per dispatch on tiered machines. A block below
   the machine's tier cap climbs one tier when its dispatch count crosses
   the next threshold (a tier-2 block's observed exit profile rides along
   into the tier-3 translation); a top-tier block that keeps side-exiting
   gets one profile-guided recompile. Both paths replace the block, so
   the counter restarts and the next check measures the new layout. *)
let maybe_promote t b =
  let hot = Tblock.tick_hot b in
  let tier = b.Tblock.tier in
  let cap = tier_cap t in
  if tier < cap && hot >= (if tier = 1 then tier2_hot else tier3_hot) then begin
    let relayout = if tier >= 2 then relayout_plan b else [] in
    let exits = Tblock.exits_total b in
    let nb = replace_block t b ~tier:(tier + 1) ~relayout in
    t.tier_promotions <- t.tier_promotions + 1;
    if relayout <> [] then t.recompiles <- t.recompiles + 1;
    if !Obs.enabled then begin
      Obs.emit
        (Obs.Tier_promote
           { entry = nb.Tblock.entry; tier = nb.Tblock.tier; hot });
      if relayout <> [] then
        Obs.emit
          (Obs.Tb_recompile
             { entry = nb.Tblock.entry;
               hot;
               exits;
               relaid = List.length relayout })
    end;
    nb
  end
  else if
    tier >= 2 && (not b.Tblock.relaid)
    && hot >= recompile_hot
    && b.Tblock.n_branches > 0
  then begin
    match relayout_plan b with
    | [] ->
        (* the observed profile agrees with the static layout: mark the
           block checked so the scan never runs again *)
        Tblock.set_tier b ~tier ~relaid:true;
        b
    | plan ->
        let exits = Tblock.exits_total b in
        let nb = replace_block t b ~tier ~relayout:plan in
        t.recompiles <- t.recompiles + 1;
        if !Obs.enabled then
          Obs.emit
            (Obs.Tb_recompile
               { entry = nb.Tblock.entry;
                 hot;
                 exits;
                 relaid = List.length plan });
        nb
  end
  else b

(* Train an inline-cache site after a miss resolved [pc] to [nb]. A miss
   on the predicted target (stale block: SMC, tier promotion) re-binds the
   monomorphic slot in place; a genuinely new target demotes the old
   binding into the polymorphic table (shedding entries that died under
   it) until the table overflows and the site goes megamorphic. *)
let ic_train t s pc nb =
  match s.site_tb with
  | None ->
      s.site_tb <- Some nb;
      s.site_target <- pc
  | Some _ when s.site_target = pc -> s.site_tb <- Some nb
  | Some ob ->
      let keep = ref [] and nkeep = ref 0 in
      Array.iter
        (function
          | Some b as e
            when b.Tblock.entry <> pc
                 && b.Tblock.entry <> s.site_target
                 && Tblock.epoch_current b t.code_epoch ->
              keep := e :: !keep;
              incr nkeep
          | _ -> ())
        s.site_poly;
      if Tblock.epoch_current ob t.code_epoch then begin
        keep := s.site_tb :: !keep;
        incr nkeep
      end;
      if !nkeep >= ic_poly_limit then begin
        s.site_mega <- true;
        s.site_tb <- None;
        s.site_target <- -1;
        s.site_poly <- [||];
        if !Obs.enabled then
          Obs.emit (Obs.Ic_mega { site = s.site_pc; targets = !nkeep + 1 })
      end
      else begin
        s.site_poly <- Array.of_list !keep;
        s.site_tb <- Some nb;
        s.site_target <- pc
      end

(* Inline-cache dispatch: the previous dispatch completed through an
   indirect terminator that published its site. Counting discipline: a
   prediction served by the monomorphic slot or the polymorphic table is
   an IC hit and a chain hit (the dispatch skipped the block table exactly
   like a link follow); a fall-through to the block table is an IC miss
   and trains the site; a dispatch through a megamorphic site is counted
   separately — the site has stopped predicting, so it is neither. A hit
   returns the option stored in the slot or table: it allocates nothing. *)
let ic_dispatch t s pc =
  match s.site_tb with
  | Some nb as o when s.site_target = pc && nb.Tblock.echeck = t.code_epoch ->
      s.site_hits <- s.site_hits + 1;
      t.ic_hits <- t.ic_hits + 1;
      t.chain_hits <- t.chain_hits + 1;
      if !Obs.enabled then
        Obs.emit (Obs.Ic_hit { site = s.site_pc; target = pc });
      o
  | _ -> (
      let poly = ref None in
      if not s.site_mega then begin
        let a = s.site_poly in
        let i = ref 0 in
        while !poly == None && !i < Array.length a do
          (match Array.unsafe_get a !i with
          | Some b as o when b.Tblock.entry = pc && b.Tblock.echeck = t.code_epoch ->
              poly := o
          | _ -> ());
          incr i
        done
      end;
      match !poly with
      | Some _ as o ->
          s.site_hits <- s.site_hits + 1;
          t.ic_hits <- t.ic_hits + 1;
          t.chain_hits <- t.chain_hits + 1;
          if !Obs.enabled then
            Obs.emit (Obs.Ic_hit { site = s.site_pc; target = pc });
          o
      | None ->
          if s.site_mega then begin
            t.ic_mega_d <- t.ic_mega_d + 1;
            block_or_cold t
          end
          else (
            match block_or_cold t with
            | None -> None  (* entry still interpreted: nothing to cache *)
            | Some nb as o ->
                s.site_misses <- s.site_misses + 1;
                t.ic_misses <- t.ic_misses + 1;
                if !Obs.enabled then
                  Obs.emit (Obs.Ic_miss { site = s.site_pc; target = pc });
                ic_train t s pc nb;
                o))

(* ------------------------------------------------------------------ *)
(* Run loops                                                           *)
(* ------------------------------------------------------------------ *)

let run_step ~handlers ~fuel t =
  let remaining = ref fuel in
  let result = ref None in
  while !result = None && !remaining > 0 do
    (match step ~handlers t with Some s -> result := Some s | None -> ());
    decr remaining
  done;
  match !result with Some s -> s | None -> Fuel_exhausted

(* Block-cached fast path: execute whole straight-line bodies between
   handler-visible events. Accounting (retired, cycles, icache) is done per
   instruction with the same ordering as [step], so both engines are
   observably identical — including mid-block faults, where the faulting
   instruction has consumed its fuel but not retired, and fuel exhaustion
   mid-block.

   Hot transfers are direct-chained: when a block completes normally, the
   next dispatch first tries the finished block's successor link (fall
   slot when the new pc is the fall-through, taken slot otherwise) and only
   falls back to the block-table probe — overwriting the link — when the
   guard fails. The guard is entry-pc equality, the one-compare epoch check,
   and same-view identity (a handler may have switched views mid-run, and
   links never cross views), so a chain hit proves exactly what a
   revalidated table hit proves.

   A chained dispatch allocates nothing: the previous block and its view
   sit in two plain variables, and a link or inline-cache hit returns the
   option cell already stored in the slot rather than a fresh [Some]. *)
let run_blocks ~handlers ~fuel t =
  let remaining = ref fuel in
  let result = ref None in
  let apply = function Resume pc -> t.pc <- pc | Stop s -> result := Some s in
  (* the block that just completed normally, as the option cell it was
     dispatched from, and the view it ran in; [prev] is cleared on any
     other path so faults/handler redirects re-enter through the table *)
  let prev = ref None and prev_view = ref t.cur in
  while !result = None && !remaining > 0 do
    (* an indirect terminator publishes its inline-cache site as it
       completes; consume it here (or drop it, if this dispatch is not a
       straight continuation — faults and handler redirects must not
       train a site with a pc it did not produce) *)
    let pic = t.pending_ic in
    if pic != None then t.pending_ic <- None;
    let bo =
      match !prev with
      | Some pb when !prev_view == t.cur -> (
          let pc = t.pc in
          match pic with
          | Some s -> ic_dispatch t s pc
          | None -> (
              let to_fall = pc = pb.Tblock.fall in
              match
                (if to_fall then pb.Tblock.link_fall else pb.Tblock.link_taken)
              with
              | Some nb as link
                when nb.Tblock.entry = pc && nb.Tblock.echeck = t.code_epoch ->
                  t.chain_hits <- t.chain_hits + 1;
                  if !Obs.enabled then
                    Obs.emit
                      (Obs.Tb_hit { entry = pc; body = Tblock.body_length nb });
                  link
              | _ -> (
                  match block_or_cold t with
                  | Some nb as o ->
                      if to_fall then Tblock.set_link_fall pb nb
                      else Tblock.set_link_taken pb nb;
                      if !Obs.enabled then
                        Obs.emit
                          (Obs.Tb_chain { src = pb.Tblock.entry; dst = pc });
                      o
                  | None -> None)))
      | _ -> block_or_cold t
    in
    prev_view := t.cur;
    prev := None;
    match bo with
    | None ->
        (* tier 0: the entry is still below the first tier threshold —
           interpret one instruction. Not a block dispatch (the
           translated-code rates keep honest denominators) and no chain
           links are formed across the interpreted gap. *)
        (match step ~handlers t with Some s -> result := Some s | None -> ());
        decr remaining
    | Some b0 ->
    let b = if t.tiered then maybe_promote t b0 else b0 in
    (* a promotion replaced the block: the one allocation is its new cell *)
    let bo = if b == b0 then bo else Some b in
    t.tb_dispatches <- t.tb_dispatches + 1;
    if Tblock.degenerate b then begin
      (* illegal, unsupported, or unmapped entry: the slow path raises the
         precise fault and routes it to the handlers *)
      (match step ~handlers t with Some s -> result := Some s | None -> ());
      decr remaining
    end
    else begin
      (* Profiling bracket: bind (or reuse) the block's cached row, mark it
         as the enclosing block for runtime-event attribution, and snapshot
         the counters the dispatch window will be charged against. All of
         it is skipped with one match when no profile is attached. *)
      let prow =
        match t.prof with
        | None -> None
        | Some p ->
            (* Reuse the option cached on the block: the steady-state
               profiled dispatch allocates nothing. *)
            let o =
              match b.Tblock.prow with
              | Some r as o
                when Profile.row_live p r
                     && Profile.row_describes r ~classes:b.Tblock.classes
                          ~term:b.Tblock.term_class ->
                  o
              | _ ->
                  let o =
                    Some
                      (Profile.bind p ~entry:b.Tblock.entry
                         ~classes:b.Tblock.classes ~term:b.Tblock.term_class)
                  in
                  Tblock.set_prow b o;
                  o
            in
            Profile.begin_dispatch p o;
            o
      in
      (* Body instructions retired are recovered from the retired-counter
         delta (every unit closure retires per covered instruction), so r0
         is snapshotted even without a profile — it is the fuel
         accountant. *)
      let r0 = t.retired in
      let c0 = if prow == None then 0 else cycles t in
      let mem0 = t.cur.vmem in
      let tlb0 = if prow == None then 0 else Memory.tlb_misses_live mem0 in
      let ic0 = if prow == None then 0 else icache_misses t in
      let ops = b.Tblock.ops in
      let nunits = Array.length ops in
      let starts = b.Tblock.starts in
      let ninsts = Array.unsafe_get starts nunits in
      let full = ninsts <= !remaining in
      let ulimit =
        if full then nunits
        else begin
          (* largest unit prefix whose instruction count fits the fuel; a
             fused unit cut in half by the limit is finished below via the
             slow path *)
          let m = ref 0 in
          while !m < nunits && Array.unsafe_get starts (!m + 1) <= !remaining do
            incr m
          done;
          !m
        end
      in
      let side = ref false in
      (* [u] survives the exception handlers: on a raise it holds the
         raising unit's index, on normal completion it equals [ulimit] —
         exactly the units whose auto-retired instructions must be
         credited below *)
      let u = ref 0 in
      let fault =
        try
          (match t.icache with
          | None ->
              while !u < ulimit do
                (Array.unsafe_get ops !u) t;
                incr u
              done
          | Some ic ->
              let pcs = b.Tblock.pcs and sizes = b.Tblock.sizes in
              let miss = t.costs.Costs.icache_miss in
              while !u < ulimit do
                let i = !u in
                let s = Array.unsafe_get starts i in
                (* fused units interleave their own fetch touches with the
                   pair's effects; single-instruction units are touched
                   here, in step-engine order *)
                if Array.unsafe_get starts (i + 1) = s + 1 then begin
                  let ipc = Array.unsafe_get pcs s
                  and sz = Array.unsafe_get sizes s in
                  if not (Icache.access ic ipc) then t.cycles_extra <- t.cycles_extra + miss;
                  if not (Icache.access ic (ipc + sz - 1)) then
                    t.cycles_extra <- t.cycles_extra + miss
                end;
                (Array.unsafe_get ops i) t;
                incr u
              done);
          None
        with
        | Side_exit ->
            side := true;
            None
        | Efault f -> Some f
        | Memory.Violation { addr; access } ->
            Some (Fault.Segfault { pc = t.pc; addr; access })
      in
      (* bulk-credit the completed units' auto-retired instructions: a
         raising unit (fault or side exit) is not in [0, u) and so only
         contributes whatever its closure retired itself *)
      t.retired <- t.retired + Array.unsafe_get b.Tblock.auto !u;
      let body_retired = t.retired - r0 in
      let term_tried = ref false in
      (match fault with
      | Some f ->
          (* the faulting instruction consumed fuel but did not retire *)
          remaining := !remaining - body_retired - 1;
          if !Metrics.enabled then Metrics.incr m_faults_raised;
          if !Obs.enabled then
            Obs.emit
              (Obs.Fault_raised { pc = Fault.pc f; cause = Fault.cause_name f });
          apply (handlers.on_fault t f)
      | None ->
          remaining := !remaining - body_retired;
          if !side then begin
            (* taken inlined branch: a normal completion — pc is already at
               the taken target, so the next iteration chains through the
               taken slot *)
            t.side_exits <- t.side_exits + 1;
            (* the raising unit's index is the observed exit profile that
               profile-guided recompilation reads *)
            if t.tiered then Tblock.note_exit b !u;
            if !Obs.enabled then
              Obs.emit
                (Obs.Tb_side_exit { entry = b.Tblock.entry; target = t.pc });
            prev := bo
          end
          else if full then (
            (* closures write pc lazily (only fault-capable ones set their
               own); re-synchronize here — the terminator's pc, or the
               block's fall-through when there is none *)
            match b.Tblock.term with
            | Some (inst, size) when !remaining > 0 -> (
                match b.Tblock.term_fn with
                | Some f when t.icache = None ->
                    (* event-free terminator: the closure sets the final pc
                       and retires — no interpreter round trip (with the
                       icache on, fall through so fetch charges apply) *)
                    f t;
                    decr remaining;
                    prev := bo
                | _ ->
                    t.pc <- b.Tblock.fall - size;
                    term_tried := true;
                    (match step_decoded ~handlers t inst size with
                    | Some s -> result := Some s
                    | None -> prev := bo);
                    decr remaining)
            | Some (_, size) -> t.pc <- b.Tblock.fall - size
            | None ->
                t.pc <- b.Tblock.fall;
                prev := bo)
          else
            (* fuel-limited prefix: resume at the first unexecuted
               instruction *)
            t.pc <-
              Array.unsafe_get b.Tblock.pcs (Array.unsafe_get starts ulimit));
      (* Account the dispatch after the handlers ran: their cycle charges
         and runtime events belong to this block's window. *)
      (match (t.prof, prow) with
      | Some p, Some row ->
          let dretired = t.retired - r0 in
          (* an attempted terminator that did not retire can only have
             faulted — count it like the step engine does *)
          let faulted =
            Option.is_some fault || (!term_tried && dretired = body_retired)
          in
          Profile.block_dispatch p row ~executed:body_retired ~retired:dretired
            ~cycles:(cycles t - c0)
            ~tlb:(Memory.tlb_misses_live mem0 - tlb0)
            ~icache:(icache_misses t - ic0) ~fault:faulted ~target:t.pc
      | _ -> ());
      (* A multi-instruction unit split by the fuel limit leaves up to
         [width - 1] units of fuel unspent on this block; burn them through
         the slow path so fuel semantics stay bit-identical to the step
         engine. (Accounted after the block window: [step] attributes
         itself.) *)
      if fault = None && (not !side) && not full then
        while !result = None && !remaining > 0 && t.retired - r0 < ninsts do
          (match step ~handlers t with Some s -> result := Some s | None -> ());
          decr remaining
        done
    end
  done;
  match !result with Some s -> s | None -> Fuel_exhausted

(* Fold the per-machine cells into the metrics registry and zero them:
   once per [run], never on the per-instruction path. *)
let flush_run_stats t =
  if !Metrics.enabled then begin
    Metrics.add m_dispatches t.tb_dispatches;
    Metrics.add m_chain_hits t.chain_hits;
    Metrics.add m_side_exits t.side_exits;
    Metrics.add m_fused t.fused_pairs;
    Metrics.add m_ic_hits t.ic_hits;
    Metrics.add m_ic_misses t.ic_misses;
    Metrics.add m_ic_mega t.ic_mega_d;
    Metrics.add m_tier_promotions t.tier_promotions;
    Metrics.add m_recompiles t.recompiles;
    Metrics.add m_translations t.translations;
    Metrics.add m_ir_blocks t.ir_blocks;
    Metrics.add m_ir_units t.ir_units;
    Metrics.add m_ir_folded t.ir_folded;
    Metrics.add m_ir_dead t.ir_dead;
    Metrics.add m_ir_pc_elided t.ir_pc_elided;
    Metrics.add m_ir_tlb_elided t.ir_tlb_elided;
    Metrics.add m_ir_cached t.ir_cached
  end;
  t.tb_dispatches <- 0;
  t.chain_hits <- 0;
  t.side_exits <- 0;
  t.fused_pairs <- 0;
  t.ic_hits <- 0;
  t.ic_misses <- 0;
  t.ic_mega_d <- 0;
  t.tier_promotions <- 0;
  t.recompiles <- 0;
  t.translations <- 0;
  t.ir_blocks <- 0;
  t.ir_units <- 0;
  t.ir_folded <- 0;
  t.ir_dead <- 0;
  t.ir_pc_elided <- 0;
  t.ir_tlb_elided <- 0;
  t.ir_cached <- 0;
  List.iter (fun v -> Memory.flush_tlb_stats v.vmem) t.views

let run ?(handlers = default_handlers) ~fuel t =
  let r0 = t.retired in
  let s =
    match t.engine with
    | Engine.Step -> run_step ~handlers ~fuel t
    | Engine.Untiered _ | Engine.Tiered _ -> run_blocks ~handlers ~fuel t
  in
  if !Metrics.enabled then Metrics.add m_retired (t.retired - r0);
  flush_run_stats t;
  s

(* ------------------------------------------------------------------ *)
(* Tier / inline-cache introspection (profile report, CLI)             *)
(* ------------------------------------------------------------------ *)

type block_info = {
  bi_entry : int;
  bi_tier : int;
  bi_relaid : bool;
  bi_hot : int;
  bi_exits : int;
}

let block_infos t =
  Hashtbl.fold
    (fun entry b acc ->
      { bi_entry = entry;
        bi_tier = b.Tblock.tier;
        bi_relaid = b.Tblock.relaid;
        bi_hot = b.Tblock.hot;
        bi_exits = Tblock.exits_total b }
      :: acc)
    t.cur.blocks []

type ic_info = {
  ici_site : int;
  ici_state : [ `Empty | `Mono | `Poly | `Mega ];
  ici_targets : int;
  ici_hits : int;
  ici_misses : int;
}

let ic_infos t =
  Hashtbl.fold
    (fun site s acc ->
      let state, targets =
        if s.site_mega then (`Mega, 0)
        else
          match (s.site_tb, Array.length s.site_poly) with
          | None, 0 -> (`Empty, 0)
          | Some _, 0 -> (`Mono, 1)
          | mono, n -> (`Poly, n + if mono = None then 0 else 1)
      in
      { ici_site = site;
        ici_state = state;
        ici_targets = targets;
        ici_hits = s.site_hits;
        ici_misses = s.site_misses }
      :: acc)
    t.cur.ics []

(* ------------------------------------------------------------------ *)
(* Persistent translation plans                                        *)
(* ------------------------------------------------------------------ *)

(* A plan is the marshalable residue of a recording machine's current view:
   the decode cache in pre-closure form, every live block's replay skeleton
   with its tier/layout/heat, the interpreter heat of still-untranslated
   entries, and the live inline-cache targets. It deliberately contains no
   closures and no stamps — stamps are recomputed against the seeding
   machine's generation table, which is sound because the cache layer only
   offers a plan to a machine whose guest code bytes hash to the digest the
   plan was stored under. *)
type config = Engine.t * Icache.geometry option

let config t : config = (t.engine, Option.map Icache.geometry t.icache)

type plan = {
  pl_config : config;
      (** the engine and the icache model fix every block's shape: a plan
          seeds only a machine created with the same configuration *)
  pl_insts : (int * Inst.t * int) array;
  pl_blocks : plan_block array;
  pl_heat : (int * int) array;
  pl_ics : (int * int list) array;
}

and plan_block = {
  pb_entry : int;
  pb_tier : int;
  pb_relaid : bool;
  pb_hot : int;
  pb_skel : skel;
}

let export_plan t =
  let insts =
    Hashtbl.fold
      (fun pc e acc ->
        match e with
        | Cok (inst, n, st)
          when Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1) = st ->
            (pc, inst, n) :: acc
        | _ -> acc)
      t.cur.cache []
  in
  let blocks =
    Hashtbl.fold
      (fun entry b acc ->
        match Hashtbl.find_opt t.cur.skels entry with
        | Some sk when Tblock.revalidate t.gens ~isa:t.isa ~epoch:t.code_epoch b ->
            { pb_entry = entry;
              pb_tier = b.Tblock.tier;
              pb_relaid = b.Tblock.relaid;
              pb_hot = b.Tblock.hot;
              pb_skel = sk }
            :: acc
        | _ -> acc)
      t.cur.blocks []
  in
  let heat = Hashtbl.fold (fun pc r acc -> (pc, !r) :: acc) t.cur.heat [] in
  let ics =
    Hashtbl.fold
      (fun site s acc ->
        if s.site_mega then acc
        else
          let targets =
            (if s.site_target >= 0 then [ s.site_target ] else [])
            @ (Array.to_list s.site_poly
              |> List.filter_map (Option.map (fun b -> b.Tblock.entry)))
          in
          if targets = [] then acc else (site, targets) :: acc)
      t.cur.ics []
  in
  { pl_config = config t;
    pl_insts = Array.of_list insts;
    pl_blocks = Array.of_list blocks;
    pl_heat = Array.of_list heat;
    pl_ics = Array.of_list ics }

let plan_stats p = (Array.length p.pl_blocks, Array.length p.pl_insts)

(* Replay one skeleton through [Tblock.translate]: decode comes from the
   (prefabbed) decode cache, the lower callback plays back the recorded
   decisions positionally — persisted post-optimize ops for IR runs, a
   deterministic recompile via [compile_op] for everything else — and the
   emitter skips [Tir.optimize]. Any divergence (a consumed-out skeleton,
   an unexpected fault) raises and the caller skips the entry, leaving it
   to the normal cold path. *)
let rebuild_block t (pb : plan_block) =
  let sk = pb.pb_skel in
  let cursor = ref 0 in
  let ir_units = ref 0 and tlb_elided = ref 0 in
  let sb, _, _ = shape t ~tier:pb.pb_tier in
  let b =
    translate_with t ~sb ~relayout:sk.sk_relayout
      ~lower:(fun ~pc:_ _inst _size ->
        if !cursor >= Array.length sk.sk_steps then raise Exit;
        let s = sk.sk_steps.(!cursor) in
        incr cursor;
        match s with Slower op -> Some op | Scompile -> None)
      ~on_compile:(fun ~pc:_ _ _ _ -> ())
      ~emit:(fun ops -> emit_units ir_units tlb_elided ops)
      pb.pb_entry
  in
  Tblock.set_tier b ~tier:pb.pb_tier ~relaid:pb.pb_relaid;
  Tblock.set_hot b pb.pb_hot;
  t.fused_pairs <- t.fused_pairs + b.Tblock.n_fused;
  b

let seed_plan t (p : plan) =
  if p.pl_config <> config t then Error "flags"
  else begin
    (* Decode-cache prefab. Entries are stamped against the seeding
       machine's current generations: the caller's content-digest check
       proved the guest bytes equal the exporting run's, so the persisted
       decodes are decodes of the current bytes. *)
    Array.iter
      (fun (pc, inst, n) ->
        Hashtbl.replace t.cur.cache pc
          (Cok (inst, n, Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1))))
      p.pl_insts;
    let seeded = ref 0 in
    Array.iter
      (fun pb ->
        match rebuild_block t pb with
        | b ->
            publish_block t pb.pb_entry b;
            (* keep the skeleton so this machine's own export re-offers the
               seeded entries (warm runs stay warm across generations) *)
            Hashtbl.replace t.cur.skels pb.pb_entry pb.pb_skel;
            incr seeded
        | exception _ -> ())
      p.pl_blocks;
    (* Interpreter heat for entries that never reached the first tier,
       skipping anything just seeded as a block. *)
    Array.iter
      (fun (pc, h) ->
        if not (Hashtbl.mem t.cur.blocks pc) then
          Hashtbl.replace t.cur.heat pc (ref h))
      p.pl_heat;
    if t.tiered then
      Array.iter
        (fun (site, targets) ->
          let s = ic_for t site in
          List.iter
            (fun pc ->
              match Hashtbl.find_opt t.cur.blocks pc with
              | Some b when Tblock.epoch_current b t.code_epoch ->
                  ic_train t s pc b
              | _ -> ())
            targets)
        p.pl_ics;
    (* Replay time is deliberately NOT added to [translate_s]: that counter
       measures translation the cache failed to serve, so a warm start's
       cost lands in the caller's cache-preparation accounting instead
       (bench: warm_start_s) and the cold/warm translate_s ratio measures
       exactly the work the cache avoided. *)
    flush_run_stats t;
    Ok !seeded
  end
