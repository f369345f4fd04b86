let cls_alu = 0
let cls_load = 1
let cls_store = 2
let cls_branch = 3
let cls_vector = 4
let n_classes = 5
let compressed_bit = 8
let call_bit = 16
let ret_bit = 32

let class_code inst =
  let base =
    if Inst.is_vector inst then cls_vector
    else
      match inst with
      | Inst.Load _ | Inst.C_ld _ | Inst.C_lw _ -> cls_load
      | Inst.Store _ | Inst.C_sd _ | Inst.C_sw _ -> cls_store
      | _ -> if Inst.is_control_flow inst then cls_branch else cls_alu
  in
  let c = if Inst.is_compressed inst then base lor compressed_bit else base in
  match inst with
  | Inst.Jal (rd, _) when Reg.equal rd Reg.ra -> c lor call_bit
  | Inst.Jalr (rd, rs1, _) ->
      if Reg.equal rd Reg.ra then c lor call_bit
      else if Reg.equal rd Reg.x0 && Reg.equal rs1 Reg.ra then c lor ret_bit
      else c
  | Inst.C_jalr _ -> c lor call_bit
  | Inst.C_jr rs1 when Reg.equal rs1 Reg.ra -> c lor ret_bit
  | _ -> c

let is_call c = c >= 0 && c land call_bit <> 0
let is_ret c = c >= 0 && c land ret_bit <> 0

(* Call-tree frame for the jal/jalr shadow stack. Weights (retired
   instructions) accumulate on the frame active at dispatch time; the folded
   output walks the tree. *)
type frame = {
  fname : int;  (* callee entry pc; -1 for the synthetic root *)
  fchildren : (int, frame) Hashtbl.t;
  mutable fself : int;
  fparent : frame option;
  mutable fhot : frame option;  (* last child pushed from this frame *)
}

type row = {
  r_entry : int;
  r_session : int;
  mutable r_classes : Bytes.t;  (* static class codes of the block body *)
  mutable r_term : int;  (* terminator class code, -1 if none *)
  mutable r_hits : int;  (* dispatches *)
  mutable r_full : int;  (* dispatches that executed the whole body *)
  mutable r_term_hits : int;  (* dispatches that also retired the terminator *)
  r_partial : int array;  (* per-class counts outside the full-body fast path *)
  mutable r_partial_comp : int;  (* compressed count within r_partial *)
  mutable r_exits : (int * int ref) list;
      (* deferred partial dispatches as (prefix length, count): a hot side
         exit repeats the same prefix, so we count it here and walk the
         class prefix once at flush time instead of once per dispatch *)
  mutable r_retired : int;
  mutable r_penalty : int;
  mutable r_tlb : int;
  mutable r_icache : int;
  mutable r_faults : int;
  mutable r_recovered : int;
  mutable r_traps : int;
}

type t = {
  t_session : int;
  rows : (int, row) Hashtbl.t;
  root : frame;
  mutable cur : frame;
  mutable depth : int;  (* frames below root on the shadow stack *)
  mutable overflow : int;  (* calls beyond [max_stack_depth], not pushed *)
  mutable cur_row : row option;
  mutable expected : int;  (* step engine: pc that continues the current leader run *)
  mutable step_cls : int;  (* class of the instruction between step_begin/step_end *)
}

let next_session = ref 0

let create () =
  incr next_session;
  let root =
    {
      fname = -1;
      fchildren = Hashtbl.create 7;
      fself = 0;
      fparent = None;
      fhot = None;
    }
  in
  {
    t_session = !next_session;
    rows = Hashtbl.create 1024;
    root;
    cur = root;
    depth = 0;
    overflow = 0;
    cur_row = None;
    expected = -1;
    step_cls = -1;
  }

let session t = t.t_session
let row_live t r = r.r_session = t.t_session

(* Fold the dispatches accounted under a row's current static mix into its
   per-class counters. Called before re-describing a row whose entry was
   re-translated to a different body, and by [snapshot] to resolve the
   [static mix x full-body dispatches] product. *)
let flush_static r =
  if r.r_full > 0 || r.r_term_hits > 0 || r.r_exits <> [] then begin
    let n = Bytes.length r.r_classes in
    for i = 0 to n - 1 do
      let c = Bytes.get_uint8 r.r_classes i in
      r.r_partial.(c land 7) <- r.r_partial.(c land 7) + r.r_full;
      if c land compressed_bit <> 0 then
        r.r_partial_comp <- r.r_partial_comp + r.r_full
    done;
    List.iter
      (fun (e, cnt) ->
        let w = !cnt in
        for i = 0 to e - 1 do
          let c = Bytes.get_uint8 r.r_classes i in
          r.r_partial.(c land 7) <- r.r_partial.(c land 7) + w;
          if c land compressed_bit <> 0 then
            r.r_partial_comp <- r.r_partial_comp + w
        done)
      r.r_exits;
    (if r.r_term >= 0 && r.r_term_hits > 0 then begin
       r.r_partial.(r.r_term land 7) <-
         r.r_partial.(r.r_term land 7) + r.r_term_hits;
       if r.r_term land compressed_bit <> 0 then
         r.r_partial_comp <- r.r_partial_comp + r.r_term_hits
     end);
    r.r_full <- 0;
    r.r_term_hits <- 0;
    r.r_exits <- []
  end

let new_row t ~entry ~classes ~term =
  let r =
    {
      r_entry = entry;
      r_session = t.t_session;
      r_classes = classes;
      r_term = term;
      r_hits = 0;
      r_full = 0;
      r_term_hits = 0;
      r_partial = Array.make n_classes 0;
      r_partial_comp = 0;
      r_exits = [];
      r_retired = 0;
      r_penalty = 0;
      r_tlb = 0;
      r_icache = 0;
      r_faults = 0;
      r_recovered = 0;
      r_traps = 0;
    }
  in
  Hashtbl.add t.rows entry r;
  r

let bind t ~entry ~classes ~term =
  match Hashtbl.find_opt t.rows entry with
  | Some r ->
      if r.r_classes != classes || r.r_term <> term then begin
        (* Same entry re-described. Flush only when the mix really changed
           (code patching, or views with different code at one pc); when it
           is merely a different-but-equal Bytes (same code re-translated),
           adopting the new object lets [row_describes] go back to a
           pointer compare. *)
        if not (Bytes.equal r.r_classes classes && r.r_term = term) then
          flush_static r;
        r.r_classes <- classes;
        r.r_term <- term
      end;
      r
  | None -> new_row t ~entry ~classes ~term

let row_describes r ~classes ~term = r.r_classes == classes && r.r_term = term

(* Process global, owned by the main domain: only a driver's startup or
   the gaps between its experiments set it (the bench's --profile and the
   CLI's run --profile), and both force one domain while a profile is
   attached (the bench's --profile implies -j 1; the CLI runs one machine),
   so no other domain is creating machines — the only readers, through
   [Machine.create] — while it changes. A profile is single-domain state. *)
let the_global : t option ref = ref None
let set_global p = the_global := p
let global () = !the_global

(* Shadow stack. The weight of a dispatch lands on the frame that was
   current while it ran; the call/return transition applies afterwards, so a
   call terminator's own retirements count in the caller. *)

let frame_weight t w = t.cur.fself <- t.cur.fself + w

(* Calls whose returns never execute (trap/SMILE trampolines redirect with
   call-shaped jumps) would otherwise grow the stack — and the folded tree —
   without bound. Past this depth a call only bumps [overflow]: weight
   accumulates on the capped frame, and the matching returns unwind the
   virtual frames before real ones, so pairing stays consistent. *)
let max_stack_depth = 128

let frame_push t callee =
  if t.overflow > 0 || t.depth >= max_stack_depth then
    t.overflow <- t.overflow + 1
  else begin
    let cur = t.cur in
    let f =
      (* One-entry inline cache: a call site overwhelmingly re-enters the
         callee it entered last time, so the common case is two compares. *)
      match cur.fhot with
      | Some f when f.fname = callee -> f
      | _ ->
          let f =
            match Hashtbl.find_opt cur.fchildren callee with
            | Some f -> f
            | None ->
                let f =
                  {
                    fname = callee;
                    fchildren = Hashtbl.create 4;
                    fself = 0;
                    fparent = Some cur;
                    fhot = None;
                  }
                in
                Hashtbl.add cur.fchildren callee f;
                f
          in
          cur.fhot <- Some f;
          f
    in
    t.cur <- f;
    t.depth <- t.depth + 1
  end

let frame_pop t =
  if t.overflow > 0 then t.overflow <- t.overflow - 1
  else
    match t.cur.fparent with
    | Some p ->
        t.cur <- p;
        t.depth <- t.depth - 1
    | None -> ()

let transition t ~cls ~target =
  if is_call cls then frame_push t target else if is_ret cls then frame_pop t

(* Machine hooks. *)

let begin_dispatch t o = t.cur_row <- o

let block_dispatch t row ~executed ~retired ~cycles ~tlb ~fault ~target =
  row.r_hits <- row.r_hits + 1;
  let body = Bytes.length row.r_classes in
  let term_retired = retired > executed in
  if executed = body then begin
    row.r_full <- row.r_full + 1;
    if term_retired then row.r_term_hits <- row.r_term_hits + 1
  end
  else begin
    (* Partial dispatch (taken side exit, mid-body fault or fuel
       exhaustion). Side exits can dominate branchy blocks, so the prefix
       walk is deferred: count dispatches per prefix length here and
       resolve them against the static mix once, at flush time. *)
    match List.assoc_opt executed row.r_exits with
    | Some cnt -> incr cnt
    | None -> row.r_exits <- (executed, ref 1) :: row.r_exits
  end;
  row.r_retired <- row.r_retired + retired;
  row.r_penalty <- row.r_penalty + (cycles - retired);
  row.r_tlb <- row.r_tlb + tlb;
  if fault then row.r_faults <- row.r_faults + 1;
  frame_weight t retired;
  if term_retired && row.r_term >= 0 then
    transition t ~cls:row.r_term ~target;
  t.cur_row <- None

let no_classes = Bytes.create 0

let step_begin t ~pc ~cls =
  let row =
    match t.cur_row with
    | Some r when pc = t.expected -> r
    | _ ->
        (* New dynamic leader: first instruction of the program, or first
           after a control transfer / fault. Step accounting is purely
           per-instruction (r_partial), so an existing row — possibly a
           block row with a static mix, when engines interleave through
           degenerate blocks — is reused untouched and totals still merge
           exactly. *)
        let r =
          match Hashtbl.find_opt t.rows pc with
          | Some r -> r
          | None -> new_row t ~entry:pc ~classes:no_classes ~term:(-1)
        in
        r.r_hits <- r.r_hits + 1;
        r
  in
  t.cur_row <- Some row;
  t.step_cls <- cls

let step_end t ~retired ~cycles ~tlb ~icache ~target =
  let cls = t.step_cls in
  match t.cur_row with
  | None -> ()
  | Some row ->
      let faulted = retired = 0 in
      if not faulted then begin
        if cls land 7 < n_classes then begin
          row.r_partial.(cls land 7) <- row.r_partial.(cls land 7) + 1;
          if cls land compressed_bit <> 0 then
            row.r_partial_comp <- row.r_partial_comp + 1
        end
      end
      else row.r_faults <- row.r_faults + 1;
      row.r_retired <- row.r_retired + retired;
      row.r_penalty <- row.r_penalty + (cycles - retired);
      row.r_tlb <- row.r_tlb + tlb;
      row.r_icache <- row.r_icache + icache;
      frame_weight t retired;
      if (not faulted) && (is_call cls || is_ret cls) then
        transition t ~cls ~target;
      if faulted || cls land 7 = cls_branch then begin
        t.expected <- -1;
        t.cur_row <- None
      end
      else t.expected <- target

let note_recovered t =
  match t.cur_row with
  | Some r -> r.r_recovered <- r.r_recovered + 1
  | None -> ()

let note_trap t =
  match t.cur_row with
  | Some r -> r.r_traps <- r.r_traps + 1
  | None -> ()

(* Results. *)

type snap = {
  s_entry : int;
  s_body : int;
  s_hits : int;
  s_retired : int;
  s_loads : int;
  s_stores : int;
  s_branches : int;
  s_alu : int;
  s_vector : int;
  s_compressed : int;
  s_penalty : int;
  s_tlb : int;
  s_icache : int;
  s_faults : int;
  s_recovered : int;
  s_traps : int;
}

let snap_of_row r =
  flush_static r;
  {
    s_entry = r.r_entry;
    s_body = Bytes.length r.r_classes;
    s_hits = r.r_hits;
    s_retired = r.r_retired;
    s_loads = r.r_partial.(cls_load);
    s_stores = r.r_partial.(cls_store);
    s_branches = r.r_partial.(cls_branch);
    s_alu = r.r_partial.(cls_alu);
    s_vector = r.r_partial.(cls_vector);
    s_compressed = r.r_partial_comp;
    s_penalty = r.r_penalty;
    s_tlb = r.r_tlb;
    s_icache = r.r_icache;
    s_faults = r.r_faults;
    s_recovered = r.r_recovered;
    s_traps = r.r_traps;
  }

let snapshot t =
  Hashtbl.fold (fun _ r acc -> snap_of_row r :: acc) t.rows []
  |> List.sort (fun a b -> compare a.s_entry b.s_entry)

let total_retired t =
  Hashtbl.fold (fun _ r acc -> acc + r.r_retired) t.rows 0

let event_of_snap s =
  Obs.Tb_profile
    {
      entry = s.s_entry;
      body = s.s_body;
      hits = s.s_hits;
      retired = s.s_retired;
      loads = s.s_loads;
      stores = s.s_stores;
      branches = s.s_branches;
      alu = s.s_alu;
      vector = s.s_vector;
      compressed = s.s_compressed;
      penalty = s.s_penalty;
      tlb = s.s_tlb;
      icache = s.s_icache;
      faults = s.s_faults;
      recovered = s.s_recovered;
      traps = s.s_traps;
    }

let to_events t = List.map event_of_snap (snapshot t)

let snaps_of_events evs =
  List.filter_map
    (function
      | Obs.Tb_profile
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
          Some
            {
              s_entry = entry;
              s_body = body;
              s_hits = hits;
              s_retired = retired;
              s_loads = loads;
              s_stores = stores;
              s_branches = branches;
              s_alu = alu;
              s_vector = vector;
              s_compressed = compressed;
              s_penalty = penalty;
              s_tlb = tlb;
              s_icache = icache;
              s_faults = faults;
              s_recovered = recovered;
              s_traps = traps;
            }
      | _ -> None)
    evs

let write_folded t oc =
  let buf = Buffer.create 256 in
  let rec walk prefix f =
    let name =
      if f.fname < 0 then "all" else Printf.sprintf "0x%x" f.fname
    in
    let stack = if prefix = "" then name else prefix ^ ";" ^ name in
    if f.fself > 0 then Printf.bprintf buf "%s %d\n" stack f.fself;
    let kids =
      Hashtbl.fold (fun _ c acc -> c :: acc) f.fchildren []
      |> List.sort (fun a b -> compare a.fname b.fname)
    in
    List.iter (walk stack) kids
  in
  walk "" t.root;
  Buffer.output_buffer oc buf
