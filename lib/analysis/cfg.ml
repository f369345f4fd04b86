type succ = Sblock of int | Sunknown | Sreturn

type block = {
  b_addr : int;
  b_insns : Disasm.insn list;
  b_succs : succ list;
  b_call : int option;
}

(* [of_disasm] builds only the flat arrays; block records and the
   predecessor table are built the first time something asks for them. *)
type t = {
  insns : Disasm.insn array;  (* insn position -> insn, ascending *)
  addrs : int array;  (* insn position -> address *)
  ends : int array;  (* insn position -> address one past it *)
  flows : Disasm.flow array;  (* insn position -> flow *)
  index : Slots.t;  (* insn addr -> position *)
  nb : int;
  starts : int array;  (* block -> position of its first insn; [starts.(nb)] = n *)
  block_of : int array;  (* insn position -> block *)
  built : block array;  (* per block, [unbuilt] until first asked for *)
  mutable predecessors : int list array option;  (* per block *)
}

(* Blocks are never empty, so an empty listing marks a record not yet
   built. *)
let unbuilt = { b_addr = -1; b_insns = []; b_succs = []; b_call = None }

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
  let insns = Array.make n { Disasm.addr = 0; inst = Inst.C_nop; size = 0 } in
  let k = ref 0 in
  Disasm.iter dis (fun i ->
      insns.(!k) <- i;
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
  { insns; addrs; ends; flows; index; nb; starts; block_of;
    built = Array.make nb unbuilt; predecessors = None }

let unknown = -1
let return = -2
let no_succ = -3

(* A direct successor that is not a known block start becomes unknown
   (decode gap) — except the fallthrough of a syscall at the end of the
   text, which is a program-exit boundary, not an unknown continuation
   (treating it as unknown would make every register live at the end of
   the program). *)
let direct t last a =
  let k = Slots.find t.index a in
  if k >= 0 && t.starts.(t.block_of.(k)) = k then t.block_of.(k)
  else match t.flows.(last) with Disasm.Syscall -> no_succ | _ -> unknown

let succ t b j =
  let last = t.starts.(b + 1) - 1 in
  match t.flows.(last) with
  | Disasm.Fallthrough | Disasm.Syscall | Disasm.Indirect_call | Disasm.Call _ ->
      if j = 0 then direct t last t.ends.(last) else no_succ
  | Disasm.Branch a ->
      if j = 0 then direct t last a
      else if j = 1 then direct t last t.ends.(last)
      else no_succ
  | Disasm.Jump a -> if j = 0 then direct t last a else no_succ
  | Disasm.Indirect_jump -> if j = 0 then unknown else no_succ
  | Disasm.Ret -> if j = 0 then return else no_succ
  | Disasm.Halt -> no_succ

let block_count t = t.nb
let block_first t b = t.starts.(b)
let position t addr = Slots.find t.index addr
let block_of_position t k = t.block_of.(k)
let flow_at t k = t.flows.(k)

let insn_at t k = t.insns.(k)

let block t b =
  match t.built.(b) with
  | { b_insns = []; _ } ->
      let insns = ref [] in
      for k = t.starts.(b + 1) - 1 downto t.starts.(b) do
        insns := insn_at t k :: !insns
      done;
      let to_succ s =
        if s >= 0 then Some (Sblock t.addrs.(t.starts.(s)))
        else if s = unknown then Some Sunknown
        else if s = return then Some Sreturn
        else None
      in
      let b_call =
        match t.flows.(t.starts.(b + 1) - 1) with Disasm.Call a -> Some a | _ -> None
      in
      let blk =
        { b_addr = t.addrs.(t.starts.(b));
          b_insns = !insns;
          b_succs = List.filter_map to_succ [ succ t b 0; succ t b 1 ];
          b_call }
      in
      t.built.(b) <- blk;
      blk
  | blk -> blk

let blocks t = List.init t.nb (block t)

(* Block index of the block starting exactly at [addr], or -1. *)
let block_index t addr =
  let k = Slots.find t.index addr in
  if k >= 0 && t.starts.(t.block_of.(k)) = k then t.block_of.(k) else -1

let block_at t addr =
  let b = block_index t addr in
  if b < 0 then None else Some (block t b)

let block_containing t addr =
  let k = Slots.find t.index addr in
  if k < 0 then None else Some (block t t.block_of.(k))

let block_end b =
  let rec last = function
    | [ (i : Disasm.insn) ] -> i.addr + i.size
    | _ :: rest -> last rest
    | [] -> b.b_addr
  in
  last b.b_insns

let predecessors t =
  match t.predecessors with
  | Some p -> p
  | None ->
      let p = Array.make t.nb [] in
      for b = 0 to t.nb - 1 do
        for j = 0 to 1 do
          let s = succ t b j in
          if s >= 0 then p.(s) <- t.addrs.(t.starts.(b)) :: p.(s)
        done
      done;
      t.predecessors <- Some p;
      p

let preds t addr =
  let b = block_index t addr in
  if b < 0 then [] else (predecessors t).(b)

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
    (blocks t);
  Format.fprintf fmt "}@."
