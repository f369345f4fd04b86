type succ = Sblock of int | Sunknown | Sreturn

type block = {
  b_addr : int;
  b_insns : Disasm.insn list;
  b_succs : succ list;
  b_call : int option;
}

(* [of_disasm] builds only the flat arrays; block records and the
   predecessor table are built the first time something asks for them.
   Each position keeps one byte of its instruction's facts, its size plus
   [Disasm.kind_code] times 8; the rest (target, register masks) is read
   from the disassembly, which also maps addresses to positions: a
   position is a [Disasm.ordinal]. *)
type t = {
  dis : Disasm.t;
  addrs : int array;  (* insn position -> address *)
  info : Bytes.t;  (* insn position -> size + 8 * kind code *)
  nb : int;
  starts : int array;  (* block -> position of its first insn; [starts.(nb)] = n *)
  block_of : Bytes.t;  (* insn position -> block, int32 *)
  mutable built : block array;
      (* per block, [unbuilt] until first asked for; empty until a first
         record is *)
  mutable predecessors : int list array option;  (* per block *)
}

(* Blocks are never empty, so an empty listing marks a record not yet
   built. *)
let unbuilt = { b_addr = -1; b_insns = []; b_succs = []; b_call = None }

let transfers = function
  | Disasm.K_fallthrough | Disasm.K_syscall -> false
  | Disasm.K_branch | Disasm.K_jump | Disasm.K_call | Disasm.K_indirect_jump
  | Disasm.K_indirect_call | Disasm.K_ret | Disasm.K_halt ->
      true

let end_of addrs info k = addrs.(k) + (Bytes.get_uint8 info k land 7)
let kind_of info k = Disasm.kind_of_code (Bytes.get_uint8 info k lsr 3)

(* Whether some insn before position [k] ends exactly where insn [k]
   starts; such an insn starts at most 4 bytes earlier. *)
let rec preceded addrs info k j =
  j >= 0
  && addrs.(j) >= addrs.(k) - 4
  && (end_of addrs info j = addrs.(k) || preceded addrs info k (j - 1))

let of_disasm dis =
  let n = Disasm.count dis in
  let addrs = Array.make n 0 and info = Bytes.create n in
  (* Leaders: the first insn, control-transfer targets, insns following a
     control transfer, and any insn no other insn ends at (function entries
     reached only via symbols, code after gaps). *)
  let leader = Bytes.make n '\000' in
  let mark a =
    let k = Disasm.ordinal dis a in
    if k >= 0 then Bytes.set leader k '\001'
  in
  let pos = ref 0 in
  Disasm.iter_facts dis (fun ~addr ~size ~kind ~target ~ext:_ ~uses:_ ~defs:_ ->
      let k = !pos in
      addrs.(k) <- addr;
      Bytes.set_uint8 info k (size + (8 * Disasm.kind_code kind));
      (match kind with
      | Disasm.K_branch | Disasm.K_jump | Disasm.K_call -> mark target
      | _ -> ());
      if transfers kind then mark (addr + size);
      if not (preceded addrs info k (k - 1)) then Bytes.set leader k '\001';
      pos := k + 1);
  (* Blocks: maximal runs of contiguous insns, cut before a leader and
     after a control transfer. *)
  let starts = Array.make (n + 1) n and block_of = Bytes.create (4 * n) in
  let nb = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || Bytes.get leader k = '\001' || transfers (kind_of info (k - 1))
       || end_of addrs info (k - 1) <> addrs.(k)
    then begin
      starts.(!nb) <- k;
      incr nb
    end;
    Bytes.set_int32_ne block_of (4 * k) (Int32.of_int (!nb - 1))
  done;
  let nb = !nb in
  starts.(nb) <- n;
  { dis; addrs; info; nb; starts; block_of; built = [||]; predecessors = None }

let kind_at t k = kind_of t.info k
let end_at t k = end_of t.addrs t.info k
let target_at t k = Disasm.target_at t.dis t.addrs.(k)
let uses_at t k = Disasm.uses_at t.dis t.addrs.(k)
let defs_at t k = Disasm.defs_at t.dis t.addrs.(k)
let ext_at t k = Disasm.ext_at t.dis t.addrs.(k)

let block_of_position t k = Int32.to_int (Bytes.get_int32_ne t.block_of (4 * k))
let position t addr = Disasm.ordinal t.dis addr

(* Block index of the block starting exactly at [addr], or -1. *)
let block_index t addr =
  let k = position t addr in
  if k >= 0 && t.starts.(block_of_position t k) = k then block_of_position t k else -1

let unknown = -1
let return = -2
let no_succ = -3

(* A direct successor that is not a known block start becomes unknown
   (decode gap) — except the fallthrough of a syscall at the end of the
   text, which is a program-exit boundary, not an unknown continuation
   (treating it as unknown would make every register live at the end of
   the program). *)
let direct t last a =
  let b = block_index t a in
  if b >= 0 then b else match kind_at t last with Disasm.K_syscall -> no_succ | _ -> unknown

let succ t b j =
  let last = t.starts.(b + 1) - 1 in
  match kind_at t last with
  | Disasm.K_fallthrough | Disasm.K_syscall | Disasm.K_indirect_call | Disasm.K_call ->
      if j = 0 then direct t last (end_at t last) else no_succ
  | Disasm.K_branch ->
      if j = 0 then direct t last (target_at t last)
      else if j = 1 then direct t last (end_at t last)
      else no_succ
  | Disasm.K_jump -> if j = 0 then direct t last (target_at t last) else no_succ
  | Disasm.K_indirect_jump -> if j = 0 then unknown else no_succ
  | Disasm.K_ret -> if j = 0 then return else no_succ
  | Disasm.K_halt -> no_succ

let block_count t = t.nb
let block_first t b = t.starts.(b)
let flow_at t k = Disasm.flow_of_kind (kind_at t k) ~target:(target_at t k)
let insn_at t k = Disasm.at t.dis t.addrs.(k)

let block t b =
  if Array.length t.built = 0 then t.built <- Array.make t.nb unbuilt;
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
      let last = t.starts.(b + 1) - 1 in
      let b_call =
        match kind_at t last with Disasm.K_call -> Some (target_at t last) | _ -> None
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

let block_at t addr =
  let b = block_index t addr in
  if b < 0 then None else Some (block t b)

let block_containing t addr =
  let k = position t addr in
  if k < 0 then None else Some (block t (block_of_position t k))

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
