let m_rw_sites =
  Metrics.counter ~help:"Extension sites rewritten (any style)"
    "chimera_rw_sites_total"

type mode = Downgrade | Upgrade | Empty

type options = {
  mode : mode;
  batch : bool;
  style : [ `Smile | `Trap ];
  spill_all : bool;
  use_gp : bool;
}

let default_options mode =
  { mode; batch = true; style = `Smile; spill_all = false; use_gp = true }

type stats = {
  mutable source_insts : int;
  mutable sites : int;
  mutable trap_entries : int;
  mutable odd_entry_traps : int;
  mutable batches : int;
  mutable exits : int;
  mutable exit_liveness : int;
  mutable exit_shift : int;
  mutable exit_terminator : int;
  mutable exit_trap : int;
  mutable table_entries : int;
  mutable target_bytes : int;
  mutable lazy_sites : int;
}

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>sources %d, sites %d (%d trap entries, %d odd-entry traps), batches %d@,\
     exits %d: liveness %d, shift %d, terminator %d, trap %d@,\
     table entries %d, target bytes %d, lazy sites %d@]"
    s.source_insts s.sites s.trap_entries s.odd_entry_traps s.batches s.exits
    s.exit_liveness s.exit_shift s.exit_terminator s.exit_trap s.table_entries
    s.target_bytes s.lazy_sites

type patch =
  | Patch_code of { addr : int; bytes : bytes }
  | Patch_section of { addr : int; bytes : bytes }

type t = {
  orig : Binfile.t;
  opts : options;
  compressed : bool;
  table : Fault_table.t;
  trap_tbl : Fault_table.t;
  st : stats;
  sec_copies : (string * int * bytes) list;
  processed : (int, unit) Hashtbl.t;  (* source addresses already handled *)
  overwritten : (int, unit) Hashtbl.t;  (* non-site-start overwritten insts *)
  mutable cursor : int;
  mutable chunks : (int * bytes) list;  (* target-code chunks, newest first *)
  mutable pending : patch list;
  mutable recording : bool;
  mutable gregs : (int * Reg.t) list;  (* jalr addr, link register *)
  mutable bin : Binfile.t option;  (* [result], remembered until [extend] *)
  mutable shared : bool;  (* [share]d: read-only from then on *)
}

let original t = t.orig
let greg_sites t = t.gregs
let fault_table t = t.table
let trap_table t = t.trap_tbl
let stats t = t.st
let gp_value t = t.orig.Binfile.gp_value

(* ------------------------------------------------------------------ *)
(* Code-copy bookkeeping                                               *)
(* ------------------------------------------------------------------ *)

let write_code t addr src len =
  let sec =
    List.find_opt
      (fun (_, a, b) -> addr >= a && addr + len <= a + Bytes.length b)
      t.sec_copies
  in
  match sec with
  | None -> invalid_arg (Printf.sprintf "Chbp.write_code: 0x%x outside code" addr)
  | Some (_, base, buf) ->
      Bytes.blit src 0 buf (addr - base) len;
      if t.recording then
        t.pending <- Patch_code { addr; bytes = Bytes.sub src 0 len } :: t.pending

(* ------------------------------------------------------------------ *)
(* Source classification                                               *)
(* ------------------------------------------------------------------ *)

(* Whether an instruction that requires [ext] is a source *)
let source_ext t ext =
  match t.opts.mode with
  | Downgrade -> (
      match ext with
      | Some Ext.V | Some Ext.B | Some Ext.P -> true
      | Some Ext.C | Some Ext.X | None -> false)
  | Empty -> (
      match ext with
      | Some Ext.V -> true
      | Some Ext.C | Some Ext.B | Some Ext.P | Some Ext.X | None -> false)
  | Upgrade -> false

let is_source t (i : Disasm.insn) = source_ext t (Ext.required i.inst)

(* ------------------------------------------------------------------ *)
(* Emission helpers                                                    *)
(* ------------------------------------------------------------------ *)

(* Labels are local to one code buffer; {!Codebuf.name} keeps them cheap
   to build (a rewrite makes tens of thousands) *)
let site_label addr = Codebuf.name "a" addr
let pad_label addr = Codebuf.name "p" addr
let stub_label addr = Codebuf.name "s" addr

let restore_gp t cb = Codebuf.la_abs cb Reg.gp t.orig.Binfile.gp_value

let copy_straight cb (i : Disasm.insn) =
  match i.inst with
  | Inst.Auipc (rd, imm) ->
      (* pc-relative: materialize the value it had at its original address *)
      Codebuf.la_abs cb rd (i.addr + (imm lsl 12))
  | inst -> Codebuf.inst cb inst

(* Exit resolution (paper §4.2 challenge 2 + Fig. 8): find a way back from
   the target block into original code at [start]. *)
type exit_kind = Eliveness | Eshift | Eterminator | Etrapped

let resolve_exit t cb dis live ~chunk_base ~start =
  let max_shift = match t.opts.style with `Smile -> 24 | `Trap -> 0 in
  let used_shift = ref false and used_trap = ref false and used_term = ref false in
  let first_liveness = ref false in
  let emit_trap resume =
    used_trap := true;
    (match Fault_table.find t.trap_tbl (chunk_base + Codebuf.size cb) with
    | Some _ -> ()
    | None ->
        Fault_table.add t.trap_tbl ~key:(chunk_base + Codebuf.size cb) ~redirect:resume);
    Codebuf.inst cb Inst.Ebreak
  in
  let overwritten addr = Hashtbl.mem t.overwritten addr in
  let jump_or_trap ?(avoid = []) target =
    if not (overwritten target) then
      match Liveness.dead_at live ~avoid target with
      | Some r -> Codebuf.vanilla_jump_abs cb r target
      | None -> emit_trap target
    else
      (* jumping onto an overwritten instruction would fault on every
         execution; still correct, and the fault-handling table recovers
         it, but prefer it only when there is no alternative. *)
      match Liveness.dead_at live ~avoid target with
      | Some r -> Codebuf.vanilla_jump_abs cb r target
      | None -> emit_trap target
  in
  let rec go addr budget ~first =
    let dead =
      if t.opts.style = `Trap || overwritten addr then None
      else Liveness.dead_at live addr
    in
    match dead with
    | Some r ->
        if first then first_liveness := true else used_shift := true;
        Codebuf.vanilla_jump_abs cb r addr
    | None -> (
        match Disasm.find dis addr with
        | None -> emit_trap addr
        | Some i ->
            if is_source t i then
              (* never inline another rewriting site; fall back to the
                 original address, where its own trampoline lives *)
              emit_trap addr
            else if t.opts.style = `Trap && not (overwritten addr) then emit_trap addr
            else if budget = 0 && not (overwritten addr) then emit_trap addr
            else (
              match Disasm.flow_of i with
              | Disasm.Fallthrough | Disasm.Syscall ->
                  copy_straight cb i;
                  used_shift := true;
                  go (addr + i.size) (max 0 (budget - 1)) ~first:false
              | Disasm.Ret ->
                  used_term := true;
                  Codebuf.inst cb (Inst.Jalr (Reg.x0, Reg.ra, 0))
              | Disasm.Indirect_jump -> (
                  used_term := true;
                  match i.inst with
                  | Inst.Jalr (_, rs1, imm) -> Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, imm))
                  | Inst.C_jr rs1 -> Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, 0))
                  | Inst.Xcheck_jalr (_, rs1, imm) ->
                      Codebuf.inst cb (Inst.Xcheck_jalr (Reg.x0, rs1, imm))
                  | _ -> emit_trap addr)
              | Disasm.Indirect_call -> (
                  used_term := true;
                  let fall = addr + i.size in
                  match i.inst with
                  | Inst.Jalr (rd, rs1, imm) when not (Reg.equal rd rs1) ->
                      Codebuf.la_abs cb rd fall;
                      Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, imm))
                  | Inst.C_jalr rs1 when not (Reg.equal rs1 Reg.ra) ->
                      Codebuf.la_abs cb Reg.ra fall;
                      Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, 0))
                  | _ -> emit_trap addr)
              | Disasm.Jump target ->
                  used_term := true;
                  jump_or_trap target
              | Disasm.Call target -> (
                  used_term := true;
                  let rd =
                    match i.inst with Inst.Jal (rd, _) -> rd | _ -> Reg.ra
                  in
                  let fall = addr + i.size in
                  match
                    if overwritten target then None
                    else Liveness.dead_at live ~avoid:[ rd ] target
                  with
                  | Some r ->
                      Codebuf.la_abs cb rd fall;
                      Codebuf.vanilla_jump_abs cb r target
                  | None ->
                      (* trap-based call: set the link inline, trap to the
                         callee. Never trap back to [addr]: if this copy is
                         itself the redirect target of an overwritten call,
                         that would loop through the fault handler forever. *)
                      Codebuf.la_abs cb rd fall;
                      emit_trap target)
              | Disasm.Branch target -> (
                  used_term := true;
                  let cond, rs1, rs2 =
                    match i.inst with
                    | Inst.Branch (c, rs1, rs2, _) -> (c, rs1, rs2)
                    | Inst.C_beqz (rs1, _) -> (Inst.Beq, rs1, Reg.x0)
                    | Inst.C_bnez (rs1, _) -> (Inst.Bne, rs1, Reg.x0)
                    | _ -> assert false
                  in
                  let taken = site_label (addr + 0x4000_0000 + Codebuf.size cb) in
                  Codebuf.branch_l cb cond rs1 rs2 taken;
                  (* fallthrough edge *)
                  go (addr + i.size) (max 0 (budget - 1)) ~first:false;
                  Codebuf.label cb taken;
                  jump_or_trap target)
              | Disasm.Halt ->
                  used_term := true;
                  copy_straight cb i))
  in
  go start max_shift ~first:true;
  t.st.exits <- t.st.exits + 1;
  let kind =
    if !first_liveness then Eliveness
    else if !used_trap then Etrapped
    else if !used_term then Eterminator
    else if !used_shift then Eshift
    else Etrapped
  in
  (match kind with
  | Eliveness -> t.st.exit_liveness <- t.st.exit_liveness + 1
  | Eshift -> t.st.exit_shift <- t.st.exit_shift + 1
  | Eterminator -> t.st.exit_terminator <- t.st.exit_terminator + 1
  | Etrapped -> t.st.exit_trap <- t.st.exit_trap + 1);
  if !Obs.enabled then begin
    let name =
      match kind with
      | Eliveness -> "liveness"
      | Eshift -> "shift"
      | Eterminator -> "terminator"
      | Etrapped -> "trap"
    in
    Obs.emit (Obs.Rw_exit { site = start; kind = name })
  end;
  kind

(* ------------------------------------------------------------------ *)
(* Batch processing (downgrade / empty)                                *)
(* ------------------------------------------------------------------ *)

type entry_kind =
  | Esmile of { space_end : int; nop : bool }
  | Etrap_entry
  | Econsumed  (** inside a previous site's space; no trampoline possible *)

(* An indirect call whose link register doubles as the target base cannot
   be reproduced in a copy (no scratch register is architecturally
   available), so it must never be overwritten by a trampoline space. *)
let uncopyable (i : Disasm.insn) =
  match i.inst with
  | Inst.Jalr (rd, rs1, _) -> Reg.equal rd rs1 && not (Reg.equal rd Reg.x0)
  | Inst.C_jalr rs1 -> Reg.equal rs1 Reg.ra
  | _ -> false

let space_of dis (si : Disasm.insn) =
  let rec go addr acc =
    if acc >= 8 then Some (addr, acc > 8)
    else
      match Disasm.find dis addr with
      | None -> None
      | Some i -> if uncopyable i then None else go (addr + i.size) (acc + i.size)
  in
  go (si.Disasm.addr + si.Disasm.size) si.Disasm.size

(* Pass 1 for a batch: decide each site's entry kind. [covered] is shared
   across batches: a site consumed by an earlier site's space (even from a
   preceding batch whose space overflowed a block boundary) cannot host a
   trampoline of its own. *)
let plan_entries ~style dis covered (sources : Disasm.insn list) =
  List.map
    (fun (si : Disasm.insn) ->
      if si.addr < !covered then (si, Econsumed)
      else if style = `Trap then begin
        covered := max !covered (si.addr + si.size);
        (si, Etrap_entry)
      end
      else
        match space_of dis si with
        | Some (space_end, nop) ->
            covered := max !covered space_end;
            (si, Esmile { space_end; nop })
        | None ->
            covered := max !covered (si.addr + si.size);
            (si, Etrap_entry))
    sources

let entry_end (si : Disasm.insn) = function
  | Esmile { space_end; _ } -> space_end
  | Etrap_entry | Econsumed -> si.Disasm.addr + si.Disasm.size

(* Record the overwritten (non-site-start) instruction addresses of a
   batch plan, so exit resolution avoids landing on them. *)
let note_overwritten t dis plan =
  List.iter
    (fun ((si : Disasm.insn), kind) ->
      match kind with
      | Esmile { space_end; _ } ->
          let rec go addr =
            if addr < space_end then
              match Disasm.find dis addr with
              | None -> ()
              | Some i ->
                  Hashtbl.replace t.overwritten addr ();
                  go (addr + i.size)
          in
          go (si.addr + si.size)
      | Etrap_entry | Econsumed -> ())
    plan

(* Batch context (setup sharing): for every maximal run of adjacent source
   instructions, reserve two registers dead across the run to carry the
   simulated-state base address and the current vl, loaded once at the run
   head. Returns the per-run-head and per-run-member context tables. *)
let compute_run_ctx t live (region_insns : Disasm.insn list) =
  let run_ctx = Hashtbl.create 8 in
  let member_ctx = Hashtbl.create 8 in
  (if t.opts.mode = Downgrade then
     let rec runs acc cur = function
       | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
       | (i : Disasm.insn) :: rest ->
           if is_source t i && not (Inst.is_bitmanip i.inst) then runs acc (i :: cur) rest
           else
             runs (match cur with [] -> acc | _ -> List.rev cur :: acc) [] rest
     in
     runs [] [] region_insns
     |> List.filter (fun r -> List.length r >= 2)
     |> List.iter (fun run ->
            match run with
            | [] -> ()
            | (head : Disasm.insn) :: rest ->
                let used =
                  List.fold_left
                    (fun acc (i : Disasm.insn) ->
                      Regmask.union acc
                        (Regmask.union (Inst.uses_mask i.inst) (Inst.defs_mask i.inst)))
                    Regmask.empty run
                in
                let candidates =
                  List.filter
                    (fun r -> not (Regmask.mem r used))
                    (Liveness.dead_regs_at live head.addr)
                in
                (match candidates with
                | rb :: rv :: _ ->
                    Hashtbl.replace run_ctx head.addr (rb, rv);
                    List.iter
                      (fun (m : Disasm.insn) ->
                        Hashtbl.replace member_ctx m.addr (rb, rv))
                      rest
                | _ -> ())));
  (run_ctx, member_ctx)

(* ------------------------------------------------------------------ *)
(* SEW prediction                                                      *)
(* ------------------------------------------------------------------ *)

(* What a forward pass knows of the SEW at a point: no vsetvli reaches
   it, all that reach it agree, or they disagree. *)
type reach = Unreached | Agreed of Inst.sew | Mixed

let join a b =
  match (a, b) with
  | Unreached, x | x, Unreached -> x
  | Agreed s, Agreed s' when s = s' -> a
  | (Agreed _ | Mixed), (Agreed _ | Mixed) -> Mixed

(* The SEW the instruction at CFG position [p] sets, if it is a vsetvli.
   Only vector instructions are decoded. *)
let vsetvli_sew cfg p =
  match Cfg.ext_at cfg p with
  | Some Ext.V -> (
      match (Cfg.insn_at cfg p).Disasm.inst with
      | Inst.Vsetvli (_, _, sew) -> Some sew
      | _ -> None)
  | Some (Ext.C | Ext.B | Ext.P | Ext.X) | None -> None

(* The SEW of the vsetvlis that reach each block entry, by a forward pass
   over the CFG: a block passes on the SEW of its last vsetvli, else the
   SEW it was entered with; roots are entered with none. Call edges fall
   through; a callee may change vtype, which the run-time guard catches
   like any misprediction. *)
let reaching_sews cfg =
  let nb = Cfg.block_count cfg in
  let last = Array.make nb Unreached in
  for b = 0 to nb - 1 do
    for p = Cfg.block_first cfg b to Cfg.block_first cfg (b + 1) - 1 do
      match vsetvli_sew cfg p with Some sew -> last.(b) <- Agreed sew | None -> ()
    done
  done;
  let entry = Array.make nb Unreached in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nb - 1 do
      let out = match last.(b) with Unreached -> entry.(b) | r -> r in
      if out <> Unreached then
        for j = 0 to 1 do
          let s = Cfg.succ cfg b j in
          if s >= 0 then begin
            let joined = join entry.(s) out in
            if joined <> entry.(s) then begin
              entry.(s) <- joined;
              changed := true
            end
          end
        done
    done
  done;
  entry

(* The SEW predicted at the instruction at [addr]: the last vsetvli before
   it in its block, else the SEW reaching the block. *)
let predict_sew cfg sews addr =
  let pos = Cfg.position cfg addr in
  let b = Cfg.block_of_position cfg pos in
  let rec back p =
    if p < Cfg.block_first cfg b then
      match (Lazy.force sews).(b) with Agreed sew -> Some sew | Unreached | Mixed -> None
    else match vsetvli_sew cfg p with Some _ as sew -> sew | None -> back (p - 1)
  in
  back (pos - 1)

(* ------------------------------------------------------------------ *)
(* Batch emission                                                      *)
(* ------------------------------------------------------------------ *)

(* What a batch emitter reads besides the context: the disassembly, the
   liveness, the CFG and its lazily computed SEW prediction. *)
type env = {
  dis : Disasm.t;
  live : Liveness.t;
  cfg : Cfg.t;
  sews : reach array Lazy.t;
}

let insns_between dis start stop =
  let rec go addr acc =
    if addr >= stop then List.rev acc
    else
      match Disasm.find dis addr with
      | None -> List.rev acc
      | Some i -> go (addr + i.size) (i :: acc)
  in
  go start []

(* One source through its per-instruction template (the slow path). Its
   templates dispatch on the simulated vsew, so a redirect may enter any
   of them whatever the SEW. *)
let translate_source t cb live (run_ctx, member_ctx) ~full_strip (i : Disasm.insn) =
  match t.opts.mode with
  | Empty -> Codebuf.inst cb i.inst
  | Downgrade ->
      (match Hashtbl.find_opt run_ctx i.addr with
      | Some (rb, rv) -> (
          Codebuf.la_abs cb rb Vregs.base;
          (* a vsetvli head sets vl itself *)
          match i.inst with
          | Inst.Vsetvli _ -> ()
          | _ ->
              Codebuf.inst cb
                (Inst.Load
                   { width = Inst.D; unsigned = false; rd = rv; rs1 = rb; imm = Vregs.vl_off }))
      | None -> ());
      let ctx =
        match Hashtbl.find_opt run_ctx i.addr with
        | Some c -> Some c
        | None -> Hashtbl.find_opt member_ctx i.addr
      in
      (* context registers must survive the whole run: keep them out of
         the spill-free set, so a context-unaware template that picks one
         saves and restores it *)
      let free =
        if t.opts.spill_all then []
        else
          let banned =
            match ctx with
            | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
            | None -> Regmask.empty
          in
          List.filter (fun r -> not (Regmask.mem r banned)) (Liveness.dead_regs_at live i.addr)
      in
      Translate.downgrade cb ~static_sew:None ~free ?vctx:ctx ~full_strip i.inst
  | Upgrade -> assert false

(* Per-instruction emission from [addr] up to [stop]: sources through their
   templates, the rest copied, a control transfer resolved in place. Every
   instruction is labeled: it is a redirect target. The tail after a
   terminator is reachable again through the next label. Returns whether
   the code falls through at [stop]. *)
let emit_walk t cb env ~chunk_base ~is_src ~ctx ~full_strip addr stop =
  let rec go addr open_tail =
    if addr >= stop then open_tail
    else
      match Disasm.find env.dis addr with
      | None ->
          if open_tail then
            ignore (resolve_exit t cb env.dis env.live ~chunk_base ~start:addr);
          false
      | Some i ->
          Codebuf.label cb (site_label addr);
          if is_src i then begin
            translate_source t cb env.live ctx ~full_strip i;
            go (addr + i.size) true
          end
          else (
            match Disasm.flow_of i with
            | Disasm.Fallthrough | Disasm.Syscall ->
                copy_straight cb i;
                go (addr + i.size) true
            | Disasm.Branch _ | Disasm.Jump _ | Disasm.Call _ | Disasm.Indirect_jump
            | Disasm.Indirect_call | Disasm.Ret | Disasm.Halt ->
                ignore (resolve_exit t cb env.dis env.live ~chunk_base ~start:addr);
                go (addr + i.size) false)
  in
  go addr true

(* Fixup stubs: redirecting into the middle of a context run must first
   re-establish the shared registers. *)
let emit_ctx_stubs cb (_, member_ctx) =
  Hashtbl.iter
    (fun maddr (rb, rv) ->
      if Codebuf.has_label cb (site_label maddr) then begin
        Codebuf.label cb (stub_label maddr);
        Codebuf.la_abs cb rb Vregs.base;
        Codebuf.inst cb
          (Inst.Load { width = Inst.D; unsigned = false; rd = rv; rs1 = rb; imm = Vregs.vl_off });
        Codebuf.j_l cb (site_label maddr)
      end)
    member_ctx

(* The label a redirect to [addr] lands on: the slow path's instruction,
   through its fixup stub inside a context run. *)
let entry_label cb addr =
  if Codebuf.has_label cb (stub_label addr) then stub_label addr else site_label addr

(* The batch fast path's plan: the SEW of its first segment (when that
   segment needs a guard), its registers, and the ones it must save. *)
type fast_plan = {
  sew0 : Inst.sew option;
  base : Reg.t;
  scratch : Reg.t * Reg.t;
  pool : Regmask.t;
  saved : Reg.t list;
}

(* A bound on the fast path's bytes. Its guards branch to failure stubs
   placed after the fast path, the tail (at most a few copies and an exit
   resolution of up to 24 shifted instructions) and the earlier stubs; a
   conditional branch reaches 4 KiB. *)
let fast_max_bytes = 2560

(* A fast path needs a vector source, a supported instruction everywhere,
   plain straight-line copies that leave sp alone, a static or predicted
   SEW for a first segment that has no vsetvli, and a size that keeps its
   guards in branch range. *)
let plan_fast t env ~is_src (span : Disasm.insn list) =
  (* [seg]: the current segment's SEW; [bytes]: the size bound so far *)
  let rec scan seg sew0 used vec bytes = function
    | [] -> if vec && bytes <= fast_max_bytes then Some (sew0, used) else None
    | (i : Disasm.insn) :: rest -> (
        let touched = Regmask.union (Inst.uses_mask i.inst) (Inst.defs_mask i.inst) in
        let used = Regmask.union used touched in
        let next seg sew0 vec size = scan seg sew0 used vec (bytes + size) rest in
        (* element code: at most 6 instructions per element *)
        let elems sew = 24 * Translate.vlmax sew + 16 in
        if not (is_src i) then
          if Disasm.flow_of i = Disasm.Fallthrough && not (Regmask.mem Reg.sp touched) then
            next seg sew0 vec 8
          else None
        else
          match (i.inst, seg) with
          | Inst.Vsetvli (_, _, sew), _ ->
              if Translate.fast_supported ~sew i.inst then next (Some sew) sew0 vec 32 else None
          | inst, Some sew when Inst.is_vector inst ->
              if Translate.fast_supported ~sew inst then next seg sew0 true (elems sew) else None
          | inst, None when Inst.is_vector inst -> (
              (* the first segment: predict its SEW once *)
              match predict_sew env.cfg env.sews i.addr with
              | Some sew when Translate.fast_supported ~sew inst ->
                  next (Some sew) (Some sew) true (elems sew + 32)
              | Some _ | None -> None)
          | _ -> next seg sew0 vec 256)
  in
  match span with
  | [] -> None
  | (first : Disasm.insn) :: _ -> (
      match scan None None Regmask.empty false 64 span with
      | None -> None
      | Some (sew0, used) -> (
          let dead =
            if t.opts.spill_all then []
            else
              List.filter
                (fun r -> not (Regmask.mem r used))
                (Liveness.dead_regs_at env.live first.addr)
          in
          match Scavenge.pick_free ~n:3 ~exclude:used ~free:dead with
          | ([ base; s1; s2 ] as regs), saved ->
              let pool =
                List.fold_left
                  (fun m r -> if List.exists (Reg.equal r) regs then m else Regmask.add r m)
                  Regmask.empty dead
              in
              Some { sew0; base; scratch = (s1, s2); pool; saved }
          | _ -> assert false))

(* The fast path for the span, in program order. Each guard branches to
   its own failure stub, which the caller emits within branch range:
   restore the saved registers, then enter the slow path at the guarded
   instruction. Returns the stubs as (label, address). *)
let emit_fast cb ~is_src plan (span : Disasm.insn list) =
  let stubs = ref [] in
  let fail addr =
    let l = Codebuf.name "f" addr in
    stubs := (l, addr) :: !stubs;
    l
  in
  Scavenge.save cb plan.saved;
  let f = Translate.fast_begin cb ~base:plan.base ~scratch:plan.scratch ~pool:plan.pool in
  (match (plan.sew0, span) with
  | Some sew, (first : Disasm.insn) :: _ -> Translate.fast_check cb f ~fail:(fail first.addr) sew
  | _ -> ());
  (* vector registers read after each instruction, by a backward pass *)
  let live_after, _ =
    List.fold_left
      (fun (acc, later) (i : Disasm.insn) ->
        (later :: acc, later lor Translate.vread_mask i.inst))
      ([], 0) (List.rev span)
  in
  List.iter2
    (fun (i : Disasm.insn) live_after ->
      if is_src i then
        match i.inst with
        | Inst.Vsetvli (rd, rs1, sew) -> Translate.fast_vsetvli cb f ~fail:(fail i.addr) rd rs1 sew
        | inst when Inst.is_vector inst -> Translate.fast_inst cb f ~live_after inst
        | inst -> Translate.downgrade cb ~static_sew:None ~free:(Translate.fast_free f) inst
      else copy_straight cb i)
    span live_after;
  Scavenge.restore cb plan.saved;
  List.rev !stubs

(* Emit one batch: the span [first, span_end) holding the batch's sources,
   then the rest of the region up to [region_end] (the tail) and the exit.
   Without a fast path this is the per-instruction emission alone. With
   one, the layout is: the fast path, falling through into the tail; the
   guard-failure stubs, close enough for the guards' conditional branches;
   then the slow path for the span, jumping back to the tail. Only the
   slow path and the tail carry site labels, so every fault-table redirect
   and fixup stub lands in per-instruction code. [pads] emits the later
   sites' landing pads, given the label a redirect to an address lands on;
   it runs before the slow path, so that the pads' SMILE targets are sought
   as early in the chunk as possible. Returns whether a fast path was built
   (its entry is the label "fast"). *)
let emit_batch t cb env ~chunk_base ~is_src ~first ~span_end ~region_end ~pads =
  let span = insns_between env.dis first span_end in
  let span_ctx = compute_run_ctx t env.live span in
  let tail_ctx = compute_run_ctx t env.live (insns_between env.dis span_end region_end) in
  let plan = if t.opts.mode = Downgrade then plan_fast t env ~is_src span else None in
  (* a context-run member is entered through its fixup stub *)
  let entry addr =
    if Hashtbl.mem (snd span_ctx) addr || Hashtbl.mem (snd tail_ctx) addr then stub_label addr
    else site_label addr
  in
  let finish open_tail =
    if open_tail then ignore (resolve_exit t cb env.dis env.live ~chunk_base ~start:region_end)
  in
  let tail () =
    Codebuf.label cb "tail";
    finish (emit_walk t cb env ~chunk_base ~is_src ~ctx:tail_ctx ~full_strip:true span_end region_end)
  in
  let slow ~full_strip =
    ignore (emit_walk t cb env ~chunk_base ~is_src ~ctx:span_ctx ~full_strip first span_end)
  in
  let ctx_stubs () =
    emit_ctx_stubs cb span_ctx;
    emit_ctx_stubs cb tail_ctx
  in
  (match plan with
  | None ->
      slow ~full_strip:true;
      tail ();
      ctx_stubs ();
      pads entry
  | Some plan ->
      Codebuf.label cb "fast";
      let stubs = emit_fast cb ~is_src plan span in
      tail ();
      List.iter
        (fun (l, addr) ->
          Codebuf.label cb l;
          Scavenge.restore cb plan.saved;
          Codebuf.j_l cb (entry addr))
        stubs;
      pads entry;
      slow ~full_strip:false;
      Codebuf.j_l cb "tail";
      ctx_stubs ());
  plan <> None

let process_batch t env plan =
  match plan with
  | [] -> ()
  | ((s1 : Disasm.insn), _) :: _ ->
      t.st.batches <- t.st.batches + 1;
      let region_end =
        List.fold_left (fun acc (si, k) -> max acc (entry_end si k)) 0 plan
      in
      let span_end =
        List.fold_left
          (fun acc ((si : Disasm.insn), _) -> max acc (si.addr + si.size))
          0 plan
      in
      let b = Smile.next_target ~pc:s1.addr ~min:t.cursor ~compressed:t.compressed in
      let cb = Codebuf.create () in
      restore_gp t cb;
      (* landing pads for the later sites of the batch: each a lone jump
         to a gp restore placed after them, so that pads of sites 8 bytes
         apart fit side by side. A pad that misses the chunk's compressed
         SMILE target window (64 KiB in every 2 MiB) is left for later. *)
      let later =
        List.filter_map
          (fun ((si : Disasm.insn), kind) ->
            match kind with
            | Esmile _ when si.addr <> s1.addr -> Some si
            | Esmile _ | Etrap_entry | Econsumed -> None)
          plan
      in
      let near = ref [] and far = ref [] in
      let pads entry =
        List.iter
          (fun (si : Disasm.insn) ->
            let min = b + Codebuf.size cb in
            match Smile.next_target ~pc:si.addr ~min ~compressed:t.compressed with
            | a when a - b <= Codebuf.size cb + 65536 ->
                Codebuf.pad_to cb (a - b);
                Codebuf.j_l cb (pad_label si.addr);
                near := (si.addr, a) :: !near
            | _ | (exception Invalid_argument _) -> far := si :: !far)
          later;
        List.iter
          (fun (si : Disasm.insn) ->
            Codebuf.label cb (pad_label si.addr);
            restore_gp t cb;
            Codebuf.j_l cb (entry si.addr))
          later
      in
      let fast =
        emit_batch t cb env ~chunk_base:b ~is_src:(is_source t) ~first:s1.addr ~span_end
          ~region_end ~pads
      in
      let entry_label = entry_label cb in
      (* a trap entry at the batch head arrives with gp intact: it enters
         where the SMILE entry's gp restore ends *)
      let head_label = if fast then "fast" else entry_label s1.addr in
      let emit_chunk base bytes =
        t.chunks <- (base, bytes) :: t.chunks;
        t.cursor <- base + Bytes.length bytes;
        t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes
      in
      emit_chunk b (Codebuf.link cb ~base:b ~resolve:(fun _ -> None));
      (* each pad left over gets a chunk of its own in the next window its
         site reaches: a jump to its gp restore *)
      let far =
        List.filter_map
          (fun (si : Disasm.insn) ->
            match Smile.next_target ~pc:si.addr ~min:t.cursor ~compressed:t.compressed with
            | a ->
                let pcb = Codebuf.create () in
                Codebuf.vanilla_jump_abs pcb Reg.gp (b + Codebuf.label_offset cb (pad_label si.addr));
                emit_chunk a (Codebuf.link pcb ~base:a ~resolve:(fun _ -> None));
                Some (si.addr, a)
            | exception Invalid_argument _ -> None)
          (List.rev !far)
      in
      let pad_targets = ((s1.addr, b) :: !near) @ far in
      (* write entry trampolines *)
      let scratch = Bytes.make 10 '\000' in
      List.iter
        (fun ((si : Disasm.insn), kind) ->
          Hashtbl.replace t.processed si.addr ();
          t.st.source_insts <- t.st.source_insts + 1;
          match kind with
          | Esmile { space_end; nop } -> (
              match List.assoc_opt si.addr pad_targets with
              | Some target ->
                  Smile.write scratch ~off:0 ~pc:si.addr ~target ~compressed:t.compressed;
                  if nop then ignore (Encode.write scratch 8 Inst.C_nop);
                  write_code t si.addr scratch (space_end - si.addr);
                  t.st.sites <- t.st.sites + 1;
                  if !Metrics.enabled then Metrics.incr m_rw_sites;
                  if !Obs.enabled then
                    Obs.emit (Obs.Rw_site { site = si.addr; style = "smile" })
              | None ->
                  (* pad placement failed: trap entry *)
                  ignore (Encode.write scratch 0 Inst.Ebreak);
                  write_code t si.addr scratch 4;
                  Fault_table.add t.trap_tbl ~key:si.addr
                    ~redirect:(b + Codebuf.label_offset cb (entry_label si.addr));
                  t.st.trap_entries <- t.st.trap_entries + 1;
                  if !Metrics.enabled then Metrics.incr m_rw_sites;
                  if !Obs.enabled then
                    Obs.emit (Obs.Rw_site { site = si.addr; style = "trap" }))
          | Etrap_entry ->
              ignore (Encode.write scratch 0 Inst.Ebreak);
              write_code t si.addr scratch 4;
              let lbl = if si.addr = s1.addr then head_label else entry_label si.addr in
              Fault_table.add t.trap_tbl ~key:si.addr ~redirect:(b + Codebuf.label_offset cb lbl);
              t.st.trap_entries <- t.st.trap_entries + 1;
              if !Metrics.enabled then Metrics.incr m_rw_sites;
              if !Obs.enabled then
                Obs.emit (Obs.Rw_site { site = si.addr; style = "trap" })
          | Econsumed -> ())
        plan;
      (* fault-handling table entries for overwritten instructions *)
      List.iter
        (fun ((si : Disasm.insn), kind) ->
          match kind with
          | Esmile { space_end; _ } ->
              let rec go addr =
                if addr < space_end then
                  match Disasm.find env.dis addr with
                  | None -> ()
                  | Some i ->
                      (match Fault_table.find t.table addr with
                      | Some _ -> ()
                      | None ->
                          (match Codebuf.label_offset cb (entry_label addr) with
                          | off ->
                              Fault_table.add t.table ~key:addr ~redirect:(b + off);
                              t.st.table_entries <- t.st.table_entries + 1
                          | exception Not_found -> ()));
                      go (addr + i.size)
              in
              go (si.addr + si.size)
          | Etrap_entry | Econsumed -> ())
        plan

(* ------------------------------------------------------------------ *)
(* General-register SMILE (paper Fig. 5)                               *)
(* ------------------------------------------------------------------ *)

(* For an ISA without a gp-like register: find an adjacent
   [lui rd, hi; load rd2, lo(rd)] static-data access before the source in
   the same basic block. Overwriting that pair with [auipc rd; jalr rd]
   keeps partial executions deterministic, because any original-valid jump
   to the pair's second instruction arrives with rd pointing at readable
   (non-executable) data. *)
let pair_target_non_exec t ~hi ~imm =
  let target = (hi lsl 12) + imm in
  List.exists
    (fun (s : Binfile.section) ->
      Binfile.in_section s target && not s.Binfile.sec_perm.Memory.x)
    t.orig.Binfile.sections

let admissible_pair_reg rd =
  (not (Reg.equal rd Reg.x0)) && (not (Reg.equal rd Reg.sp))
  && not (Reg.equal rd Reg.gp)

(* Decode a 4-byte slot of the working text copy (patches included), for
   peeking behind a lazily discovered site in an uncompressed binary. *)
let raw_inst t addr =
  match
    List.find_opt
      (fun (_, a, b) -> addr >= a && addr + 4 <= a + Bytes.length b)
      t.sec_copies
  with
  | None -> None
  | Some (_, base, buf) ->
      let off = addr - base in
      let lo = Bytes.get_uint16_le buf off
      and hi = Bytes.get_uint16_le buf (off + 2) in
      (match Decode.decode ~lo ~hi with
      | Decode.Ok (inst, 4) -> Some { Disasm.addr; inst; size = 4 }
      | Decode.Ok _ | Decode.Illegal _ -> None)

(* Walk backwards from [si] through straight-line code we can replay in the
   target section, looking for an idiom pair the containing block (possibly
   truncated by lazy disassembly) did not expose. *)
let backward_pair t (si : Disasm.insn) =
  let rec back addr between budget =
    if budget = 0 then None
    else
      match (raw_inst t (addr - 8), raw_inst t (addr - 4)) with
      | ( Some ({ Disasm.inst = Inst.Lui (rd, hi); _ } as lui),
          Some ({ Disasm.inst = Inst.Load { rs1; imm; _ }; _ } as ld) )
        when Reg.equal rs1 rd && admissible_pair_reg rd
             && (not (Hashtbl.mem t.overwritten lui.Disasm.addr))
             && (not (Hashtbl.mem t.overwritten ld.Disasm.addr))
             && pair_target_non_exec t ~hi ~imm ->
          Some (lui, ld, rd, between)
      | _, Some i
        when Disasm.flow_of i = Disasm.Fallthrough
             && (not (is_source t i))
             && not (Hashtbl.mem t.overwritten i.Disasm.addr) ->
          back (addr - 4) (i :: between) (budget - 1)
      | _, (Some _ | None) -> None
  in
  back si.Disasm.addr [] 16

let find_greg_pair t cfg (si : Disasm.insn) =
  let in_block =
    match Cfg.block_containing cfg si.Disasm.addr with
    | None -> None
    | Some b ->
        let rec scan = function
          | ({ Disasm.inst = Inst.Lui (rd, hi); _ } as lui)
            :: ({ Disasm.inst = Inst.Load { rs1; imm; _ }; _ } as ld)
            :: rest
            when Reg.equal rs1 rd && admissible_pair_reg rd
                 && ld.Disasm.addr + ld.Disasm.size <= si.Disasm.addr
                 && not (Hashtbl.mem t.overwritten ld.Disasm.addr) ->
              if pair_target_non_exec t ~hi ~imm then
                let between =
                  List.filter
                    (fun (i : Disasm.insn) ->
                      i.addr > ld.Disasm.addr && i.addr < si.Disasm.addr)
                    b.Cfg.b_insns
                in
                Some (lui, ld, rd, between)
              else scan (ld :: rest)
          | _ :: rest -> scan rest
          | [] -> None
        in
        scan b.Cfg.b_insns
  in
  match in_block with Some _ -> in_block | None -> backward_pair t si

let process_greg_site t env (sources : Disasm.insn list) =
  match sources with
  | [] -> ()
  | (si : Disasm.insn) :: _ ->
      t.st.batches <- t.st.batches + 1;
      let last = List.nth sources (List.length sources - 1) in
      let region_end = last.Disasm.addr + last.Disasm.size in
      List.iter
        (fun (s : Disasm.insn) ->
          t.st.source_insts <- t.st.source_insts + 1;
          Hashtbl.replace t.processed s.addr ())
        sources;
      let scratch = Bytes.make 8 '\000' in
      let is_src (i : Disasm.insn) = List.exists (fun s -> s.Disasm.addr = i.addr) sources in
      (* translate sources, copy everything else, from [start] to
         [region_end], then resolve the exit *)
      let emit_body cb b start =
        ignore
          (emit_batch t cb env ~chunk_base:b ~is_src ~first:start ~span_end:region_end
             ~region_end ~pads:ignore)
      in
      let add_table cb b addr =
        match Fault_table.find t.table addr with
        | Some _ -> ()
        | None -> (
            match Codebuf.label_offset cb (entry_label cb addr) with
            | off ->
                Fault_table.add t.table ~key:addr ~redirect:(b + off);
                t.st.table_entries <- t.st.table_entries + 1
            | exception Not_found -> ())
      in
      (* Normal flow reaches the translation through the entry trampoline,
         so the in-place sources behind it are dead code; only hidden
         indirect entries (invisible to recursive descent) can still land
         on them. Put a resident trap over each, turning every such entry
         into a cheap trap-table redirect instead of a per-visit SIGILL
         attribution. *)
      let trap_over_source cb b (s : Disasm.insn) =
        match Codebuf.label_offset cb (entry_label cb s.addr) with
        | off ->
            ignore (Encode.write scratch 0 Inst.Ebreak);
            write_code t s.addr scratch 4;
            Fault_table.add t.trap_tbl ~key:s.addr ~redirect:(b + off);
            t.st.odd_entry_traps <- t.st.odd_entry_traps + 1;
            if !Metrics.enabled then Metrics.incr m_rw_sites;
            if !Obs.enabled then
              Obs.emit (Obs.Rw_site { site = s.addr; style = "trap" })
        | exception Not_found -> ()
      in
      let emit_trap_entry () =
        let b = (t.cursor + 3) land lnot 3 in
        let cb = Codebuf.create () in
        emit_body cb b si.addr;
        let bytes = Codebuf.link cb ~base:b ~resolve:(fun _ -> None) in
        t.chunks <- (b, bytes) :: t.chunks;
        t.cursor <- b + Bytes.length bytes;
        t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes;
        ignore (Encode.write scratch 0 Inst.Ebreak);
        write_code t si.addr scratch 4;
        Fault_table.add t.trap_tbl ~key:si.addr ~redirect:b;
        t.st.trap_entries <- t.st.trap_entries + 1;
        if !Metrics.enabled then Metrics.incr m_rw_sites;
        if !Obs.enabled then
          Obs.emit (Obs.Rw_site { site = si.addr; style = "trap" });
        List.iter
          (fun (s : Disasm.insn) ->
            add_table cb b s.addr;
            trap_over_source cb b s)
          (List.tl sources)
      in
      (match (if t.compressed then None else find_greg_pair t env.cfg si) with
      | None -> emit_trap_entry ()
      | Some (lui, ld, rd, between) ->
          let b = (t.cursor + 3) land lnot 3 in
          let cb = Codebuf.create () in
          (* re-establish rd (the trampoline clobbered it), replay the data
             access and the straight-line code up to the first source, then
             the body from there *)
          Codebuf.label cb (site_label lui.Disasm.addr);
          copy_straight cb lui;
          Codebuf.label cb (site_label ld.Disasm.addr);
          copy_straight cb ld;
          List.iter
            (fun (i : Disasm.insn) ->
              Codebuf.label cb (site_label i.addr);
              copy_straight cb i)
            between;
          emit_body cb b si.addr;
          let bytes = Codebuf.link cb ~base:b ~resolve:(fun _ -> None) in
          t.chunks <- (b, bytes) :: t.chunks;
          t.cursor <- b + Bytes.length bytes;
          t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes;
          (* the trampoline over the pair: auipc rd, hi; jalr rd, lo(rd) *)
          let delta = b - lui.Disasm.addr in
          ignore (Encode.write scratch 0 (Inst.Auipc (rd, Encode.hi20 delta)));
          ignore (Encode.write scratch 4 (Inst.Jalr (rd, rd, Encode.lo12 delta)));
          write_code t lui.Disasm.addr scratch 8;
          Hashtbl.replace t.overwritten ld.Disasm.addr ();
          t.gregs <- (ld.Disasm.addr, rd) :: t.gregs;
          t.st.sites <- t.st.sites + 1;
          if !Metrics.enabled then Metrics.incr m_rw_sites;
          if !Obs.enabled then
            Obs.emit (Obs.Rw_site { site = lui.Disasm.addr; style = "greg" });
          add_table cb b ld.Disasm.addr;
          List.iter
            (fun (s : Disasm.insn) ->
              add_table cb b s.addr;
              trap_over_source cb b s)
            sources)

(* ------------------------------------------------------------------ *)
(* Upgrade batch                                                       *)
(* ------------------------------------------------------------------ *)

let process_upgrade t dis live (c : Upgrade.candidate) =
  t.st.batches <- t.st.batches + 1;
  t.st.source_insts <- t.st.source_insts + 1;
  Hashtbl.replace t.processed c.Upgrade.c_addr ();
  (* the trampoline overwrites the first 8 bytes of the loop *)
  (match Disasm.find dis c.c_addr with
  | Some i when i.size = 4 -> ()
  | _ -> invalid_arg "Chbp.process_upgrade: unexpected loop head");
  Hashtbl.replace t.overwritten (c.c_addr + 4) ();
  let b = Smile.next_target ~pc:c.c_addr ~min:t.cursor ~compressed:t.compressed in
  let cb = Codebuf.create () in
  restore_gp t cb;
  Upgrade.emit_vector_loop cb c;
  ignore (resolve_exit t cb dis live ~chunk_base:b ~start:c.c_exit);
  (* redirect target for the overwritten second instruction *)
  (match Disasm.find dis (c.c_addr + 4) with
  | Some i ->
      Codebuf.label cb (site_label i.addr);
      copy_straight cb i;
      ignore (resolve_exit t cb dis live ~chunk_base:b ~start:(c.c_addr + 8))
  | None -> ());
  let bytes = Codebuf.link cb ~base:b ~resolve:(fun _ -> None) in
  t.chunks <- (b, bytes) :: t.chunks;
  t.cursor <- b + Bytes.length bytes;
  t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes;
  let scratch = Bytes.make 10 '\000' in
  Smile.write scratch ~off:0 ~pc:c.c_addr ~target:b ~compressed:t.compressed;
  write_code t c.c_addr scratch 8;
  t.st.sites <- t.st.sites + 1;
  if !Metrics.enabled then Metrics.incr m_rw_sites;
  if !Obs.enabled then
    Obs.emit (Obs.Rw_site { site = c.c_addr; style = "smile" });
  (match Codebuf.label_offset cb (site_label (c.c_addr + 4)) with
  | off ->
      (match Fault_table.find t.table (c.c_addr + 4) with
      | Some _ -> ()
      | None ->
          Fault_table.add t.table ~key:(c.c_addr + 4) ~redirect:(b + off);
          t.st.table_entries <- t.st.table_entries + 1)
  | exception Not_found -> ())

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

(* Sources, in address order, grouped per containing basic block. A block
   is one contiguous address range, so its sources are consecutive. *)
let group_by_block cfg sources =
  let block (s : Disasm.insn) = Cfg.block_of_position cfg (Cfg.position cfg s.addr) in
  let close acc cur = match cur with [] -> acc | _ -> List.rev cur :: acc in
  let rec go acc cur = function
    | [] -> List.rev (close acc cur)
    | s :: rest -> (
        match cur with
        | c :: _ when block c <> block s -> go (close acc cur) [ s ] rest
        | _ -> go acc (s :: cur) rest)
  in
  go [] [] sources

let process t dis =
  let cfg = Cfg.of_disasm dis in
  let live = Liveness.compute cfg in
  let env = { dis; live; cfg; sews = lazy (reaching_sews cfg) } in
  match t.opts.mode with
  | Upgrade ->
      Upgrade.find cfg live
      |> List.filter (fun c -> not (Hashtbl.mem t.processed c.Upgrade.c_addr))
      |> List.iter (fun c -> process_upgrade t dis live c)
  | Downgrade | Empty ->
      (* only sources are decoded *)
      let sources = ref [] in
      Disasm.iter_facts dis
        (fun ~addr ~size:_ ~kind:_ ~target:_ ~ext ~uses:_ ~defs:_ ->
          if source_ext t ext && not (Hashtbl.mem t.processed addr) then
            sources := Disasm.at dis addr :: !sources);
      let sources = List.rev !sources in
      if not t.opts.use_gp then
        List.iter (process_greg_site t env) (group_by_block cfg sources)
      else
        let batches =
          if t.opts.batch then group_by_block cfg sources
          else List.map (fun s -> [ s ]) sources
        in
        let covered = ref 0 in
        let plans =
          List.map (fun srcs -> plan_entries ~style:t.opts.style dis covered srcs) batches
        in
        List.iter (note_overwritten t dis) plans;
        List.iter (process_batch t env) plans

let rewrite ?options (bin : Binfile.t) =
  let opts = match options with Some o -> o | None -> default_options Downgrade in
  let compressed = Ext.mem Ext.C bin.Binfile.isa in
  let sec_copies =
    Binfile.code_sections bin
    |> List.map (fun (s : Binfile.section) ->
           (s.sec_name, s.sec_addr, Bytes.copy s.sec_data))
  in
  let t =
    { orig = bin;
      opts;
      compressed;
      table = Fault_table.create ();
      trap_tbl = Fault_table.create ~name:"trap" ();
      st =
        { source_insts = 0; sites = 0; trap_entries = 0; odd_entry_traps = 0;
          batches = 0; exits = 0;
          exit_liveness = 0; exit_shift = 0; exit_terminator = 0; exit_trap = 0;
          table_entries = 0; target_bytes = 0; lazy_sites = 0 };
      sec_copies;
      processed = Hashtbl.create 256;
      overwritten = Hashtbl.create 256;
      cursor = Layout.rewriter_base;
      chunks = [];
      pending = [];
      recording = false;
      gregs = [];
      bin = None;
      shared = false }
  in
  process t (Disasm.of_binfile bin);
  t

(* Merge the target-code chunks into page-disjoint sections. *)
let chunk_sections t =
  let chunks = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev t.chunks) in
  let rec group acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some c -> c :: acc)
    | (addr, bytes) :: rest -> (
        match cur with
        | None ->
            let buf = Buffer.create (Bytes.length bytes) in
            Buffer.add_bytes buf bytes;
            group acc (Some (addr, buf)) rest
        | Some (base, buf) ->
            let cur_end = base + Buffer.length buf in
            if addr - cur_end <= 16384 then begin
              Buffer.add_string buf (String.make (addr - cur_end) '\000');
              Buffer.add_bytes buf bytes;
              group acc (Some (base, buf)) rest
            end
            else
              let nbuf = Buffer.create (Bytes.length bytes) in
              Buffer.add_bytes nbuf bytes;
              group ((base, buf) :: acc) (Some (addr, nbuf)) rest)
  in
  let groups = group [] None chunks in
  List.mapi
    (fun i (addr, buf) ->
      { Binfile.sec_name = Printf.sprintf ".chimera.text.%d" i;
        sec_addr = addr;
        sec_data = Buffer.to_bytes buf;
        sec_perm = Memory.perm_rx })
    groups

let build_result t =
  let bin = t.orig in
  let patched =
    List.map
      (fun (s : Binfile.section) ->
        match List.find_opt (fun (n, _, _) -> n = s.sec_name) t.sec_copies with
        | Some (_, _, copy) -> { s with sec_data = copy }
        | None -> s)
      bin.Binfile.sections
  in
  let extra = chunk_sections t in
  let extra =
    match t.opts.mode with
    | Downgrade -> extra @ [ Vregs.section () ]
    | Upgrade | Empty -> extra
  in
  let isa =
    match t.opts.mode with
    | Downgrade ->
        Ext.of_list
          (List.filter
             (fun e -> e <> Ext.V && e <> Ext.B)
             (Ext.to_list bin.Binfile.isa))
    | Upgrade -> Ext.union bin.Binfile.isa (Ext.of_list [ Ext.V ])
    | Empty -> bin.Binfile.isa
  in
  let suffix =
    match t.opts.mode with
    | Downgrade -> ".chbp-down"
    | Upgrade -> ".chbp-up"
    | Empty -> ".chbp-empty"
  in
  { bin with
    Binfile.name = bin.Binfile.name ^ suffix;
    isa;
    sections = patched @ extra }

let result t =
  match t.bin with
  | Some b -> b
  | None ->
      let b = build_result t in
      t.bin <- Some b;
      b

let share t =
  ignore (result t);
  t.shared <- true

let is_shared t = t.shared

(* Everything [extend] mutates is duplicated: the tables, the stats, the
   processed sets and the working text copies. Target chunks are never
   written after they are emitted, so the copy shares them. *)
let copy t =
  { t with
    table = Fault_table.copy t.table;
    trap_tbl = Fault_table.copy t.trap_tbl;
    st = { t.st with sites = t.st.sites };
    sec_copies = List.map (fun (n, a, b) -> (n, a, Bytes.copy b)) t.sec_copies;
    processed = Hashtbl.copy t.processed;
    overwritten = Hashtbl.copy t.overwritten;
    pending = [];
    bin = None;
    shared = false }

let extend t ~root =
  if t.shared then invalid_arg "Chbp.extend: shared context; extend a copy";
  t.bin <- None;
  t.recording <- true;
  t.pending <- [];
  let before_chunks = List.length t.chunks in
  let sites_before = t.st.sites + t.st.trap_entries in
  let dis = Disasm.of_binfile_at t.orig ~roots:[ root ] in
  process t dis;
  t.st.lazy_sites <- t.st.lazy_sites + (t.st.sites + t.st.trap_entries - sites_before);
  let fresh = List.length t.chunks - before_chunks in
  let new_chunks =
    List.filteri (fun i _ -> i < fresh) t.chunks
    |> List.rev_map (fun (addr, bytes) -> Patch_section { addr; bytes })
  in
  let patches = List.rev t.pending @ new_chunks in
  t.pending <- [];
  t.recording <- false;
  patches
