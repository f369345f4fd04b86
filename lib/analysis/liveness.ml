type t = {
  index : Slots.t;  (* insn addr -> position in address order *)
  first : int array;  (* per block: position of its first insn *)
  block_of : int array;  (* insn position -> block *)
  live_out : Regmask.t array;  (* per block *)
  live_in : Regmask.t array;  (* per insn *)
}

let is_call (i : Disasm.insn) =
  match Disasm.flow_of i with
  | Disasm.Call _ | Disasm.Indirect_call -> true
  | Disasm.Fallthrough | Disasm.Branch _ | Disasm.Jump _ | Disasm.Indirect_jump
  | Disasm.Ret | Disasm.Syscall | Disasm.Halt ->
      false

let insn_uses (i : Disasm.insn) =
  let own = Regmask.of_list (Inst.uses i.inst) in
  (* the callee may read its arguments, plus the target register *)
  if is_call i then Regmask.union Regmask.arg_regs own else own

let insn_defs (i : Disasm.insn) =
  let own = Regmask.of_list (Inst.defs i.inst) in
  (* the callee may clobber every caller-saved register *)
  if is_call i then Regmask.union Regmask.caller_saved own else own

(* At a return the ABI pins the caller-visible state: the return values,
   the stack pointer and the callee-saved registers; every caller-saved
   scratch is dead. *)
let abi_return_live =
  Regmask.of_list
    ([ Reg.a0; Reg.a1; Reg.sp; Reg.gp; Reg.tp; Reg.ra ] @ Reg.callee_saved)

(* Successors as block indices, with these two markers for the rest. *)
let unknown = -1
let return = -2

let compute cfg =
  let blocks = Array.of_list (Cfg.blocks cfg) in
  let nb = Array.length blocks in
  let first = Array.make (nb + 1) 0 in
  Array.iteri
    (fun b (blk : Cfg.block) -> first.(b + 1) <- first.(b) + List.length blk.b_insns)
    blocks;
  let n = first.(nb) in
  (* per-insn transfer masks: live_in = uses ∪ (live_out \ defs) *)
  let addrs = Array.make n 0 and uses = Array.make n 0 and defs = Array.make n 0 in
  let block_of = Array.make n 0 in
  Array.iteri
    (fun b (blk : Cfg.block) ->
      List.iteri
        (fun j (i : Disasm.insn) ->
          let k = first.(b) + j in
          addrs.(k) <- i.addr;
          uses.(k) <- insn_uses i;
          defs.(k) <- insn_defs i;
          block_of.(k) <- b)
        blk.b_insns)
    blocks;
  let index = Slots.of_sorted addrs in
  (* Each block's transfer folded into one gen/kill pair:
     live_in = gen ∪ (live_out \ kill). *)
  let gen = Array.make nb 0 and kill = Array.make nb 0 in
  for b = 0 to nb - 1 do
    for k = first.(b + 1) - 1 downto first.(b) do
      gen.(b) <- Regmask.union uses.(k) (Regmask.diff gen.(b) defs.(k));
      kill.(b) <- Regmask.union kill.(b) defs.(k)
    done
  done;
  let succs =
    Array.map
      (fun (blk : Cfg.block) ->
        Array.of_list
          (List.map
             (function
               | Cfg.Sblock a -> block_of.(Slots.find index a)
               | Cfg.Sunknown -> unknown
               | Cfg.Sreturn -> return)
             blk.b_succs))
      blocks
  in
  let preds = Array.make nb [] in
  Array.iteri
    (fun b ss -> Array.iter (fun s -> if s >= 0 then preds.(s) <- b :: preds.(s)) ss)
    succs;
  let block_in = Array.make nb Regmask.empty and live_out = Array.make nb Regmask.empty in
  let out_of b =
    Array.fold_left
      (fun acc s ->
        if s = unknown then Regmask.all
        else if s = return then Regmask.union acc abi_return_live
        else Regmask.union acc block_in.(s))
      Regmask.empty succs.(b)
  in
  (* Backward worklist fixpoint: a FIFO ring holding each block at most
     once, seeded last block first. *)
  let ring = Array.make (max nb 1) 0 and queued = Bytes.make nb '\001' in
  for b = 0 to nb - 1 do
    ring.(b) <- nb - 1 - b
  done;
  let head = ref 0 and size = ref nb in
  while !size > 0 do
    let b = ring.(!head) in
    head := (!head + 1) mod nb;
    decr size;
    Bytes.set queued b '\000';
    let out = out_of b in
    live_out.(b) <- out;
    let inn = Regmask.union gen.(b) (Regmask.diff out kill.(b)) in
    if inn <> block_in.(b) then begin
      block_in.(b) <- inn;
      List.iter
        (fun p ->
          if Bytes.get queued p = '\000' then begin
            Bytes.set queued p '\001';
            ring.((!head + !size) mod nb) <- p;
            incr size
          end)
        preds.(b)
    end
  done;
  (* Every instruction's live-in, one backward pass per block. *)
  let insn_live_in = Array.make n 0 in
  for b = 0 to nb - 1 do
    let live = ref live_out.(b) in
    for k = first.(b + 1) - 1 downto first.(b) do
      live := Regmask.union uses.(k) (Regmask.diff !live defs.(k));
      insn_live_in.(k) <- !live
    done
  done;
  { index; first; block_of; live_out; live_in = insn_live_in }

let live_out t addr =
  let k = Slots.find t.index addr in
  if k >= 0 && t.first.(t.block_of.(k)) = k then t.live_out.(t.block_of.(k))
  else raise Not_found

let live_in_at t addr =
  let k = Slots.find t.index addr in
  if k < 0 then None else Some t.live_in.(k)

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
