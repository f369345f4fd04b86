(* Liveness is solved on demand. A block's live-out depends only on the
   blocks reachable forward from it: a call does not enter its callee, and
   an unknown or return successor is a fixed mask. So the first query in a
   block solves the forward closure of that block, minus the blocks earlier
   queries already solved (their live-ins are final), and marks it solved.
   Each closure is solved to its least fixpoint from empty sets, so the
   answers do not depend on which queries come first. *)

let unseen = '\000'
let open_ = '\001'  (* in the closure being solved *)
let solved = '\002'
let walked = '\003'  (* solved, and its insns' live-ins stored *)

type t = {
  cfg : Cfg.t;
  state : Bytes.t;  (* per block *)
  next : Bytes.t;  (* per block on the search stack: next successor to visit *)
  succs : int array;  (* per block, two [Cfg.succ] codes, filled once seen *)
  gen : Regmask.t array;  (* per block, once seen: live_in = gen ∪ (live_out \ kill) *)
  kill : Regmask.t array;
  live_in : Regmask.t array;  (* per block, final once solved *)
  live_out : Regmask.t array;
  insn_live_in : Bytes.t;  (* per insn, once its block is walked: an int32 mask *)
  stack : int array;  (* depth-first search over the closure *)
  order : int array;  (* the closure, successors before predecessors *)
}

let is_call = function
  | Disasm.K_call | Disasm.K_indirect_call -> true
  | Disasm.K_fallthrough | Disasm.K_branch | Disasm.K_jump | Disasm.K_indirect_jump
  | Disasm.K_ret | Disasm.K_syscall | Disasm.K_halt ->
      false

let uses own kind =
  (* the callee may read its arguments, plus the target register *)
  if is_call kind then Regmask.union Regmask.arg_regs own else own

let defs own kind =
  (* the callee may clobber every caller-saved register *)
  if is_call kind then Regmask.union Regmask.caller_saved own else own

let insn_uses (i : Disasm.insn) = uses (Inst.uses_mask i.inst) (Disasm.kind_of i)
let insn_defs (i : Disasm.insn) = defs (Inst.defs_mask i.inst) (Disasm.kind_of i)
let uses_at cfg k = uses (Cfg.uses_at cfg k) (Cfg.kind_at cfg k)
let defs_at cfg k = defs (Cfg.defs_at cfg k) (Cfg.kind_at cfg k)

(* At a return the ABI pins the caller-visible state: the return values,
   the stack pointer and the callee-saved registers; every caller-saved
   scratch is dead. *)
let abi_return_live =
  Regmask.of_list
    ([ Reg.a0; Reg.a1; Reg.sp; Reg.gp; Reg.tp; Reg.ra ] @ Reg.callee_saved)

let compute cfg =
  let nb = Cfg.block_count cfg in
  let ints () = Array.make nb 0 in
  { cfg;
    state = Bytes.make nb unseen;
    next = Bytes.make nb '\000';
    succs = Array.make (2 * nb) 0;
    gen = ints ();
    kill = ints ();
    live_in = ints ();
    live_out = ints ();
    insn_live_in = Bytes.create (4 * Cfg.block_first cfg nb);
    stack = ints ();
    order = ints () }

let enter t b =
  Bytes.set t.state b open_;
  t.succs.(2 * b) <- Cfg.succ t.cfg b 0;
  t.succs.((2 * b) + 1) <- Cfg.succ t.cfg b 1;
  (* the block's transfer folded into one gen/kill pair *)
  let gen = ref Regmask.empty and kill = ref Regmask.empty in
  for k = Cfg.block_first t.cfg (b + 1) - 1 downto Cfg.block_first t.cfg b do
    let d = defs_at t.cfg k in
    gen := Regmask.union (uses_at t.cfg k) (Regmask.diff !gen d);
    kill := Regmask.union !kill d
  done;
  t.gen.(b) <- !gen;
  t.kill.(b) <- !kill

let out_of t b =
  let out = ref Regmask.empty in
  for j = 2 * b to (2 * b) + 1 do
    let s = t.succs.(j) in
    if s >= 0 then out := Regmask.union !out t.live_in.(s)
    else if s = Cfg.unknown then out := Regmask.all
    else if s = Cfg.return then out := Regmask.union !out abi_return_live
  done;
  !out

let solve t b0 =
  if Bytes.get t.state b0 < solved then begin
    (* the unsolved forward closure of [b0], in depth-first postorder *)
    enter t b0;
    t.stack.(0) <- b0;
    let depth = ref 1 and m = ref 0 in
    while !depth > 0 do
      let b = t.stack.(!depth - 1) in
      let j = Char.code (Bytes.get t.next b) in
      if j < 2 then begin
        Bytes.set t.next b (Char.chr (j + 1));
        let s = t.succs.((2 * b) + j) in
        if s >= 0 && Bytes.get t.state s = unseen then begin
          enter t s;
          t.stack.(!depth) <- s;
          incr depth
        end
      end
      else begin
        decr depth;
        t.order.(!m) <- b;
        incr m
      end
    done;
    (* round-robin passes from empty sets until nothing changes: the least
       fixpoint *)
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to !m - 1 do
        let b = t.order.(i) in
        let out = out_of t b in
        t.live_out.(b) <- out;
        let inn = Regmask.union t.gen.(b) (Regmask.diff out t.kill.(b)) in
        if inn <> t.live_in.(b) then begin
          t.live_in.(b) <- inn;
          changed := true
        end
      done
    done;
    for i = 0 to !m - 1 do
      Bytes.set t.state t.order.(i) solved
    done
  end

let live_out t addr =
  let k = Cfg.position t.cfg addr in
  if k < 0 then raise Not_found;
  let b = Cfg.block_of_position t.cfg k in
  if Cfg.block_first t.cfg b <> k then raise Not_found;
  solve t b;
  t.live_out.(b)

(* The first query inside a block stores the live-in of each of its
   insns, one backward walk from the block's live-out. *)
let live_in_at t addr =
  let k = Cfg.position t.cfg addr in
  if k < 0 then None
  else
    let b = Cfg.block_of_position t.cfg k in
    if Bytes.get t.state b <> walked then begin
      solve t b;
      let live = ref t.live_out.(b) in
      for j = Cfg.block_first t.cfg (b + 1) - 1 downto Cfg.block_first t.cfg b do
        live := Regmask.union (uses_at t.cfg j) (Regmask.diff !live (defs_at t.cfg j));
        Bytes.set_int32_ne t.insn_live_in (4 * j) (Int32.of_int !live)
      done;
      Bytes.set t.state b walked
    end;
    Some (Int32.to_int (Bytes.get_int32_ne t.insn_live_in (4 * k)) land Regmask.all)

let never_clobber = Regmask.of_list [ Reg.x0; Reg.sp; Reg.gp; Reg.tp ]

let banned live avoid =
  Regmask.union never_clobber (Regmask.union live (Regmask.of_list avoid))

let dead_regs_candidates =
  Reg.temporaries
  @ [ Reg.ra; Reg.a7; Reg.a6; Reg.a5; Reg.a4; Reg.a3; Reg.a2; Reg.a1; Reg.a0; Reg.s11;
      Reg.s10; Reg.s9; Reg.s8 ]

let dead_at_candidates = Reg.temporaries @ [ Reg.ra; Reg.a7; Reg.a6; Reg.a5; Reg.a4 ]

let dead_regs_at t ?(avoid = []) addr =
  match live_in_at t addr with
  | None -> []
  | Some live ->
      let banned = banned live avoid in
      List.filter (fun r -> not (Regmask.mem r banned)) dead_regs_candidates

let dead_at t ?(avoid = []) addr =
  match live_in_at t addr with
  | None -> None
  | Some live ->
      let banned = banned live avoid in
      List.find_opt (fun r -> not (Regmask.mem r banned)) dead_at_candidates
