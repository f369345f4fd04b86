type succ = Sblock of int | Sunknown | Sreturn

type block = {
  b_addr : int;
  b_insns : Disasm.insn list;
  b_succs : succ list;
  b_call : int option;
}

type t = {
  blocks : block array;  (* ascending by address *)
  ordered : block list;
  index : Slots.t;  (* insn addr -> position in address order *)
  block_of : int array;  (* insn position -> block *)
  predecessors : int list array;  (* per block *)
}

let transfers = function
  | Disasm.Fallthrough | Disasm.Syscall -> false
  | Disasm.Branch _ | Disasm.Jump _ | Disasm.Call _ | Disasm.Indirect_jump
  | Disasm.Indirect_call | Disasm.Ret | Disasm.Halt ->
      true

(* Whether some insn before position [k] ends exactly where insn [k]
   starts; such an insn starts at most 4 bytes earlier. *)
let rec preceded addrs ends k j =
  j >= 0
  && addrs.(j) >= addrs.(k) - 4
  && (ends.(j) = addrs.(k) || preceded addrs ends k (j - 1))

let of_disasm dis =
  let n = Disasm.count dis in
  let addrs = Array.make n 0 and ends = Array.make n 0 in
  let flows = Array.make n Disasm.Fallthrough in
  let k = ref 0 in
  Disasm.iter dis (fun i ->
      addrs.(!k) <- i.addr;
      ends.(!k) <- i.addr + i.size;
      flows.(!k) <- Disasm.flow_of i;
      incr k);
  let index = Slots.of_sorted addrs in
  (* Leaders: the first insn, control-transfer targets, insns following a
     control transfer, and any insn no other insn ends at (function entries
     reached only via symbols, code after gaps). *)
  let leader = Bytes.make n '\000' in
  let mark a =
    let k = Slots.find index a in
    if k >= 0 then Bytes.set leader k '\001'
  in
  for k = 0 to n - 1 do
    (match flows.(k) with
    | Disasm.Branch t | Disasm.Jump t | Disasm.Call t -> mark t
    | _ -> ());
    if transfers flows.(k) then mark ends.(k);
    if not (preceded addrs ends k (k - 1)) then Bytes.set leader k '\001'
  done;
  (* Blocks: maximal runs of contiguous insns, cut before a leader and
     after a control transfer. *)
  let starts = Array.make (n + 1) n and block_of = Array.make n 0 in
  let nb = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || Bytes.get leader k = '\001' || transfers flows.(k - 1)
       || ends.(k - 1) <> addrs.(k)
    then begin
      starts.(!nb) <- k;
      incr nb
    end;
    block_of.(k) <- !nb - 1
  done;
  let nb = !nb in
  starts.(nb) <- n;
  let is_start a =
    let k = Slots.find index a in
    k >= 0 && starts.(block_of.(k)) = k
  in
  (* A direct successor that is not a known block start becomes unknown
     (decode gap) — except the fallthrough of a syscall at the end of the
     text, which is a program-exit boundary, not an unknown continuation
     (treating it as unknown would make every register live at the end of
     the program). *)
  let block b b_insns =
    let last = starts.(b + 1) - 1 in
    let fall = ends.(last) in
    let direct a rest =
      if is_start a then Sblock a :: rest
      else match flows.(last) with Disasm.Syscall -> rest | _ -> Sunknown :: rest
    in
    let b_succs, b_call =
      match flows.(last) with
      | Disasm.Fallthrough | Disasm.Syscall | Disasm.Indirect_call -> (direct fall [], None)
      | Disasm.Branch t -> (direct t (direct fall []), None)
      | Disasm.Jump t -> (direct t [], None)
      | Disasm.Call t -> (direct fall [], Some t)
      | Disasm.Indirect_jump -> ([ Sunknown ], None)
      | Disasm.Ret -> ([ Sreturn ], None)
      | Disasm.Halt -> ([], None)
    in
    { b_addr = addrs.(starts.(b)); b_insns; b_succs; b_call }
  in
  let blocks = Array.make nb { b_addr = 0; b_insns = []; b_succs = []; b_call = None } in
  let b = ref 0 and k = ref 0 and cur = ref [] in
  Disasm.iter dis (fun i ->
      cur := i :: !cur;
      incr k;
      if !k = starts.(!b + 1) then begin
        blocks.(!b) <- block !b (List.rev !cur);
        cur := [];
        incr b
      end);
  let predecessors = Array.make nb [] in
  Array.iter
    (fun b ->
      List.iter
        (function
          | Sblock a ->
              let s = block_of.(Slots.find index a) in
              predecessors.(s) <- b.b_addr :: predecessors.(s)
          | Sunknown | Sreturn -> ())
        b.b_succs)
    blocks;
  { blocks; ordered = Array.to_list blocks; index; block_of; predecessors }

let blocks t = t.ordered

(* Block index of the block starting exactly at [addr], or -1. *)
let block_index t addr =
  let k = Slots.find t.index addr in
  if k < 0 then -1
  else
    let b = t.block_of.(k) in
    if t.blocks.(b).b_addr = addr then b else -1

let block_at t addr =
  let b = block_index t addr in
  if b < 0 then None else Some t.blocks.(b)

let block_containing t addr =
  let k = Slots.find t.index addr in
  if k < 0 then None else Some t.blocks.(t.block_of.(k))

let block_end b =
  let rec last = function
    | [ (i : Disasm.insn) ] -> i.addr + i.size
    | _ :: rest -> last rest
    | [] -> b.b_addr
  in
  last b.b_insns

let preds t addr =
  let b = block_index t addr in
  if b < 0 then [] else t.predecessors.(b)

let pp_dot fmt t =
  Format.fprintf fmt "digraph cfg {@.  node [shape=box, fontname=monospace];@.";
  List.iter
    (fun b ->
      let label =
        String.concat "\\l"
          (List.map
             (fun (i : Disasm.insn) ->
               Printf.sprintf "%x: %s" i.addr (Inst.to_string i.inst))
             b.b_insns)
      in
      Format.fprintf fmt "  b%x [label=\"%s\\l\"];@." b.b_addr label;
      List.iter
        (function
          | Sblock a -> Format.fprintf fmt "  b%x -> b%x;@." b.b_addr a
          | Sunknown ->
              Format.fprintf fmt "  b%x -> unknown [style=dashed];@." b.b_addr
          | Sreturn -> Format.fprintf fmt "  b%x -> ret [style=dotted];@." b.b_addr)
        b.b_succs)
    t.ordered;
  Format.fprintf fmt "}@."
