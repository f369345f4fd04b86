(* Translation superblocks: runs of decoded instructions compiled into
   arrays of closures, validated by page-granular generation counters.

   A superblock extends past direct control flow: inlined direct jumps
   continue decoding at their target, inlined conditional branches continue
   at their fall-through (the taken path leaves the block through a guarded
   side exit at run time), and the block may span several pages — each page
   it touches is recorded in a small per-block page set whose generations
   are summed on revalidation.

   Straight-line instructions are lowered into the linear IR ({!Tir}) and
   buffered; at the first control-flow, non-lowerable or terminating
   instruction the buffered run is handed to the machine's [emit] callback,
   which optimizes it as a whole and returns execution units (each covering
   one or more instructions). The per-instruction metadata (pcs, classes)
   stays exact regardless of how the emitter groups instructions
   into units, so fuel accounting, fault attribution and the profiler's
   prefix walks are unaffected by IR optimization.

   The module is parameterized over the machine state ['m]: the machine
   supplies [decode], [lower], [compile] and [emit] callbacks, so this
   module owns the block layout, the termination policy and the
   invalidation bookkeeping without depending on the executor. *)

let page_shift =
  let rec go n s = if n <= 1 then s else go (n lsr 1) (s + 1) in
  go Memory.page_size 0

let page_of addr = addr asr page_shift

module Gen = struct
  (* Page-granular generation counters in a growable flat array keyed by
     page index. [stamp]/[stamp_pages] run on the revalidation path after
     every epoch bump, so reads are plain array loads; only [bump] (rare:
     code patching) grows the array. Generations only grow, so two stamps
     over the same pages are equal iff no covered page was bumped in
     between. Pages beyond the array are implicitly at generation 0. *)
  type t = { mutable gens : int array }

  let create () = { gens = Array.make 1024 0 }

  let ensure t p =
    let n = Array.length t.gens in
    if p >= n then begin
      let n' = ref (n * 2) in
      while p >= !n' do
        n' := !n' * 2
      done;
      let a = Array.make !n' 0 in
      Array.blit t.gens 0 a 0 n;
      t.gens <- a
    end

  let bump t ~addr ~len =
    if len > 0 then begin
      let hi = page_of (addr + len - 1) in
      ensure t hi;
      for p = page_of addr to hi do
        t.gens.(p) <- t.gens.(p) + 1
      done
    end

  let stamp t ~lo ~hi =
    let a = t.gens in
    let n = Array.length a in
    let s = ref 0 in
    let p1 = page_of hi in
    let p1 = if p1 >= n then n - 1 else p1 in
    for p = page_of lo to p1 do
      s := !s + Array.unsafe_get a p
    done;
    !s

  let stamp_pages t pages =
    let a = t.gens in
    let n = Array.length a in
    let s = ref 0 in
    for i = 0 to Array.length pages - 1 do
      let p = Array.unsafe_get pages i in
      if p < n then s := !s + Array.unsafe_get a p
    done;
    !s
end

(* What the machine's compiler says about one decoded instruction. *)
type 'm compiled =
  | Op of ('m -> unit)
      (** Straight-line: executes the instruction. The closure does not
          touch the retired counter — the dispatch loop credits it in bulk
          through [auto]. *)
  | Op_self of ('m -> unit)
      (** Straight-line like [Op], but the closure retires internally
          (vector / interpreter-fallback instructions with their own
          accounting); excluded from [auto]. *)
  | Jump of ('m -> unit) * int
      (** Inlined direct jump: the closure transfers to the (static) target
          and retires; decoding continues at the target. *)
  | Brcond of ('m -> unit)
      (** Inlined conditional branch: the closure retires and either falls
          through or takes the side exit (machine-private exception);
          decoding continues at the fall-through. *)
  | Term  (** Event instruction: ends the block, kept decoded. *)
  | Term_fn of ('m -> unit)
      (** Terminator proven event-free at translation time: executed as a
          direct closure by the dispatch loop; [term] still records the
          decoded pair for the interpreter paths. *)
  | Stop  (** Not executable on the fast path (e.g. unsupported extension). *)

type 'm t = {
  entry : int;
  pages : int array;  (** deduplicated page indices the block's bytes span *)
  isa : Ext.t;  (** capability set the block was compiled against *)
  stamp : int;
  ops : ('m -> unit) array;
      (** execution units; a unit may cover several instructions (a run
          of pure ops) *)
  starts : int array;
      (** [starts.(u)] is the body-instruction index of unit [u]'s first
          instruction; length [Array.length ops + 1], with the last entry
          the body instruction count — the fuel accountant's map from units
          to instructions *)
  auto : int array;
      (** [auto.(u)] is the number of auto-retired instructions in units
          [0, u): straight-line units whose closures do not bump the
          retired counter themselves, credited in one add per dispatch;
          same length as [starts] *)
  pcs : int array;  (** pc of each body instruction (fuel resume, faults) *)
  term : (Inst.t * int) option;
      (** decoded terminator, executed through the machine's event path *)
  term_fn : ('m -> unit) option;
      (** event-free terminator compiled to a closure; when present the
          dispatch loop executes it instead of routing [term] through the
          interpreter *)
  fall : int;
      (** pc where decoding stopped: the fall-through of the last decoded
          instruction (or, after an inlined jump, its target) *)
  classes : Bytes.t;
      (** static profiler class code ({!Profile.class_code}) per body
          instruction — the block's instruction mix, priced once here so the
          profiler can attribute a full-body dispatch with one counter *)
  term_class : int;  (** class code of the terminator, -1 if none *)
  n_jumps : int;  (** inlined direct jumps in the body *)
  n_branches : int;  (** inlined conditional branches (potential side exits) *)
  n_fused : int;
      (** instructions beyond the first in multi-instruction units —
          Σ (unit width − 1) over the body *)
  mutable echeck : int;
      (** machine code-epoch at the last successful validation; equality
          with the current epoch certifies the stamp without re-summing *)
  mutable link_fall : 'm t option;  (** chained successor at [fall] *)
  mutable link_taken : 'm t option;
      (** chained successor at any other terminator target *)
  mutable link_exits : 'm t option array;
      (** chained successor of each side exit, indexed by the raising unit;
          [[||]] until the block's first side exit, then one slot per unit
          (see {!set_link_exit}) *)
  mutable prow : Profile.row option;
      (** cached profiler row for [entry]; valid only while
          [Profile.row_live] holds for the machine's attached profile *)
  mutable cell : 'm t option;
      (** [Some] of the block itself, made once at translation or
          {!clone}: links, inline caches and the dispatch loop store and
          return this cell, so no dispatch allocates an option *)
}

(* One byte per element of a list built in reverse. *)
let bytes_of_rev l =
  let n = List.length l in
  let b = Bytes.create n in
  List.iteri (fun i v -> Bytes.set_uint8 b (n - 1 - i) v) l;
  b

let with_cell b =
  b.cell <- Some b;
  b

let default_max_insts = 256
let default_max_pages = 8

(* Decode a superblock starting at [entry]. The run ends at the first event
   instruction (kept as the decoded terminator), at the first undecodable or
   fast-path-ineligible instruction, when the next instruction would push
   the page set past [max_pages], or after [max_insts] instructions.
   Inlined jumps redirect decoding to their target; inlined branches
   continue on the fall-through path. A degenerate block (empty body, no
   terminator) still covers the entry bytes so that patching them
   invalidates it. *)
let translate ?(max_insts = default_max_insts) ?(max_pages = default_max_pages)
    ~gens ~epoch ~isa ~decode ~lower ~compile ~emit entry =
  (* Units and per-instruction metadata accumulate separately: the emitter
     groups instructions into units, never metadata. *)
  let units = ref [] and widths = ref [] and selfs = ref [] and nunits = ref 0 in
  let pcs = ref [] and classes = ref [] in
  let n_insts = ref 0 in
  let pages = ref [] and n_pages = ref 0 in
  let n_jumps = ref 0 and n_branches = ref 0 and n_fused = ref 0 in
  let term = ref None and term_fn = ref None and term_class = ref (-1) in
  let pc = ref entry in
  let stop = ref false in
  let covers p = List.mem p !pages in
  let pages_fit a len =
    let p0 = page_of a and p1 = page_of (a + len - 1) in
    let need =
      (if covers p0 then 0 else 1)
      + if p1 <> p0 && not (covers p1) then 1 else 0
    in
    !n_pages + need <= max_pages
  in
  let add_pages a len =
    let p0 = page_of a and p1 = page_of (a + len - 1) in
    if not (covers p0) then begin
      pages := p0 :: !pages;
      incr n_pages
    end;
    if p1 <> p0 && not (covers p1) then begin
      pages := p1 :: !pages;
      incr n_pages
    end
  in
  let push_unit f w ~self =
    units := f :: !units;
    widths := w :: !widths;
    selfs := self :: !selfs;
    incr nunits
  in
  (* an IR unit leaves retirement to the dispatch loop's bulk credit *)
  let push_ir f w = push_unit f w ~self:false in
  let push_inst ipc cls =
    pcs := ipc :: !pcs;
    classes := cls :: !classes;
    incr n_insts
  in
  (* Straight-line instructions are lowered into an IR run buffer; at any
     block event (control flow, non-lowerable instruction, terminator,
     block end) the buffered run is optimized and emitted as units. The
     per-instruction metadata is pushed eagerly at decode, so unit order
     follows decode order and metadata is never touched by the emitter. *)
  let run = ref [] and nrun = ref 0 in
  let flush_run () =
    if !nrun > 0 then begin
      let ops = Array.of_list (List.rev !run) in
      let ninsts = !nrun in
      run := [];
      nrun := 0;
      let nu = !nunits in
      emit push_ir ops;
      (* instructions beyond one-per-unit were merged *)
      n_fused := !n_fused + (ninsts - (!nunits - nu))
    end
  in
  while not !stop do
    if !n_insts >= max_insts then begin
      flush_run ();
      stop := true
    end
    else
      match decode !pc with
      | None ->
          flush_run ();
          stop := true
      | Some (inst, size) ->
          if not (pages_fit !pc size) then begin
            flush_run ();
            stop := true
          end
          else (
            match lower ~pc:!pc inst size with
            | Some iop ->
                add_pages !pc size;
                push_inst !pc (Profile.class_code inst);
                run := iop :: !run;
                incr nrun;
                pc := !pc + size
            | None -> (
                (* The buffered run must be emitted BEFORE [compile] runs:
                   emission replays the run through the machine's
                   translation-time register state, and [compile] may
                   clobber or update that state for the event instruction
                   (interpreter fallback, inlined call) — in program
                   order, the run comes first. *)
                flush_run ();
                match compile ~pc:!pc inst size with
                | Stop -> stop := true
                | Term ->
                    add_pages !pc size;
                    term := Some (inst, size);
                    term_class := Profile.class_code inst;
                    pc := !pc + size;
                    stop := true
                | Term_fn f ->
                    add_pages !pc size;
                    term := Some (inst, size);
                    term_fn := Some f;
                    term_class := Profile.class_code inst;
                    pc := !pc + size;
                    stop := true
                | Op f ->
                    add_pages !pc size;
                    push_inst !pc (Profile.class_code inst);
                    push_unit f 1 ~self:false;
                    pc := !pc + size
                | Op_self f ->
                    (* carries its own retire accounting *)
                    add_pages !pc size;
                    push_inst !pc (Profile.class_code inst);
                    push_unit f 1 ~self:true;
                    pc := !pc + size
                | Jump (f, target) ->
                    add_pages !pc size;
                    push_inst !pc (Profile.class_code inst);
                    push_unit f 1 ~self:true;
                    incr n_jumps;
                    pc := target
                | Brcond f ->
                    add_pages !pc size;
                    push_inst !pc (Profile.class_code inst);
                    push_unit f 1 ~self:true;
                    incr n_branches;
                    pc := !pc + size))
  done;
  (* A degenerate block covers the widest possible instruction at the entry
     so a patch there re-translates. *)
  if !n_insts = 0 && !term = None then add_pages entry 4;
  let widths = Array.of_list (List.rev !widths) in
  let selfs = Array.of_list (List.rev !selfs) in
  let starts = Array.make (!nunits + 1) 0 in
  let auto = Array.make (!nunits + 1) 0 in
  for i = 0 to !nunits - 1 do
    starts.(i + 1) <- starts.(i) + widths.(i);
    auto.(i + 1) <- auto.(i) + (if selfs.(i) then 0 else widths.(i))
  done;
  let pages = Array.of_list !pages in
  with_cell
  { entry;
    pages;
    isa;
    stamp = Gen.stamp_pages gens pages;
    ops = Array.of_list (List.rev !units);
    starts;
    auto;
    pcs = Array.of_list (List.rev !pcs);
    term = !term;
    term_fn = !term_fn;
    fall = !pc;
    classes = bytes_of_rev !classes;
    term_class = !term_class;
    n_jumps = !n_jumps;
    n_branches = !n_branches;
    n_fused = !n_fused;
    echeck = epoch;
    link_fall = None;
    link_taken = None;
    link_exits = [||];
    prow = None;
    cell = None }

(* Fast validity: a block checked under the current code epoch is valid by
   construction (the epoch advances on every generation bump). On an epoch
   change, fall back to the full page-set stamp + capability check and
   re-certify; generations are monotonic, so an equal sum proves no covered
   page changed. A block that fails here is replaced in the block table —
   its [echeck] is never refreshed again, so any chain link still pointing
   at it can never pass the epoch guard (links are severed lazily). *)
let revalidate gens ~isa ~epoch b =
  b.echeck = epoch
  || (Ext.equal isa b.isa
      && Gen.stamp_pages gens b.pages = b.stamp
      &&
      (b.echeck <- epoch;
       true))

(* Stamp and epoch are the cloning machine's; links and the profiler row
   start empty. *)
let clone gens ~epoch ~term_fn b =
  with_cell
  { b with
    stamp = Gen.stamp_pages gens b.pages;
    term_fn;
    echeck = epoch;
    link_fall = None;
    link_taken = None;
    link_exits = [||];
    prow = None;
    cell = None }

let epoch_current b epoch = b.echeck = epoch
let set_link_fall b next = b.link_fall <- next.cell
let set_link_taken b next = b.link_taken <- next.cell

(* The slot array is sized on the first side exit, so blocks that never
   side-exit (and every clone) carry the shared empty array. *)
let set_link_exit b u next =
  if Array.length b.link_exits = 0 then
    b.link_exits <- Array.make (Array.length b.ops) None;
  if u >= 0 && u < Array.length b.link_exits then b.link_exits.(u) <- next.cell

let set_prow b r = b.prow <- r

let body_length b = Array.length b.pcs

let degenerate b = Array.length b.ops = 0 && b.term = None
