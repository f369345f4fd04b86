type insn = { addr : int; inst : Inst.t; size : int }

type flow =
  | Fallthrough
  | Branch of int
  | Jump of int
  | Call of int
  | Indirect_jump
  | Indirect_call
  | Ret
  | Syscall
  | Halt

type kind =
  | K_fallthrough
  | K_branch
  | K_jump
  | K_call
  | K_indirect_jump
  | K_indirect_call
  | K_ret
  | K_syscall
  | K_halt

let kind_of_inst = function
  | Inst.Branch _ | Inst.C_beqz _ | Inst.C_bnez _ -> K_branch
  | Inst.Jal (rd, _) -> if Reg.equal rd Reg.x0 then K_jump else K_call
  | Inst.C_j _ -> K_jump
  | Inst.Jalr (rd, rs1, imm) ->
      if Reg.equal rd Reg.x0 then
        if Reg.equal rs1 Reg.ra && imm = 0 then K_ret else K_indirect_jump
      else K_indirect_call
  | Inst.Xcheck_jalr (rd, _, _) ->
      if Reg.equal rd Reg.x0 then K_indirect_jump else K_indirect_call
  | Inst.C_jr rs1 -> if Reg.equal rs1 Reg.ra then K_ret else K_indirect_jump
  | Inst.C_jalr _ -> K_indirect_call
  | Inst.Ecall -> K_syscall
  | Inst.Ebreak | Inst.C_ebreak -> K_halt
  | Inst.Lui _ | Inst.Auipc _ | Inst.Load _ | Inst.Store _ | Inst.Op _
  | Inst.Opi _ | Inst.C_nop | Inst.C_addi _ | Inst.C_li _ | Inst.C_mv _
  | Inst.C_add _ | Inst.C_ld _ | Inst.C_sd _ | Inst.C_lw _ | Inst.C_sw _
  | Inst.C_lui _ | Inst.C_addiw _ | Inst.C_andi _ | Inst.C_alu _
  | Inst.C_slli _ | Inst.Vsetvli _
  | Inst.Vle _ | Inst.Vlse _ | Inst.Vse _ | Inst.Vsse _
  | Inst.Vop_vv _ | Inst.Vop_vx _ | Inst.Vmv_v_x _
  | Inst.Vmv_x_s _ | Inst.Vredsum _ | Inst.P_add16 _ | Inst.P_smaqa _ ->
      K_fallthrough

(* The offset of a direct branch, jump or call target; 0 for the rest. *)
let offset_of = function
  | Inst.Branch (_, _, _, off) | Inst.C_beqz (_, off) | Inst.C_bnez (_, off)
  | Inst.Jal (_, off) | Inst.C_j off ->
      off
  | _ -> 0

let flow_of_kind kind ~target =
  match kind with
  | K_fallthrough -> Fallthrough
  | K_branch -> Branch target
  | K_jump -> Jump target
  | K_call -> Call target
  | K_indirect_jump -> Indirect_jump
  | K_indirect_call -> Indirect_call
  | K_ret -> Ret
  | K_syscall -> Syscall
  | K_halt -> Halt

let kind_of i = kind_of_inst i.inst
let flow_of i = flow_of_kind (kind_of i) ~target:(i.addr + offset_of i.inst)

let kinds =
  [| K_fallthrough; K_branch; K_jump; K_call; K_indirect_jump; K_indirect_call;
     K_ret; K_syscall; K_halt |]

let kind_code = function
  | K_fallthrough -> 0
  | K_branch -> 1
  | K_jump -> 2
  | K_call -> 3
  | K_indirect_jump -> 4
  | K_indirect_call -> 5
  | K_ret -> 6
  | K_syscall -> 7
  | K_halt -> 8

let kind_of_code c = kinds.(c)

let exts = [| None; Some Ext.C; Some Ext.V; Some Ext.B; Some Ext.P; Some Ext.X |]

let ext_code = function
  | None -> 0
  | Some Ext.C -> 1
  | Some Ext.V -> 2
  | Some Ext.B -> 3
  | Some Ext.P -> 4
  | Some Ext.X -> 5

(* Each code section keeps [stride] bytes of facts per halfword: the facts
   of the instruction starting there, filled once when it is discovered.
   Instructions are 2-byte aligned, so a jump target that lands inside
   another instruction still has facts of its own. Nothing here is a
   pointer, so filling them adds nothing for the GC to scan or promote.
   Four int32 words:

     head     size in bytes (bits 0-2; 0 where nothing was discovered),
              kind code (bits 3-6), required extension code (bits 7-9)
              and direct target minus address (bits 10-31, signed; a jal
              reaches 1 MiB either way)
     uses     registers read ([Inst.uses_mask])
     defs     registers written ([Inst.defs_mask])
     ordinal  rank among all discovered instructions by address

   Facts come in chunks of [chunk] halfwords, each allocated when the
   first instruction in it is discovered, so a discovery from one root (a
   lazy rewrite) pays for the code it reaches rather than for the whole
   section. A chunk's 4 KiB is past the minor heap's largest object, so it
   is allocated in the major heap and never promoted.

   The [Inst.t] itself is decoded again from the section bytes whenever a
   caller asks for an [insn]. *)
let stride = 16
let f_uses = 4
let f_defs = 8
let f_ordinal = 12
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type section = {
  base : int;
  data : bytes;
  chunks : bytes array;  (* [chunk] halfwords each; empty until one is discovered *)
}

type t = {
  secs : section array;  (* ascending by address *)
  mutable count : int;
  mutable bytes : int;
}

(* sign-extended, so a head's target offset reads back with [asr] *)
let get32 b i = Int32.to_int (Bytes.get_int32_ne b i)
let set32 b i v = Bytes.set_int32_ne b i (Int32.of_int v)

(* Masks of [x1]..[x31] use bit 31, which reads back as the sign. *)
let get_mask b i = get32 b i land 0xFFFF_FFFF

let size_of_head w = w land 7
let kind_of_head w = kinds.((w lsr 3) land 15)
let ext_of_head w = exts.((w lsr 7) land 7)
let offset_of_head w = w asr 10

(* The chunk holding halfword [h] of [s], and [h]'s offset in it. *)
let chunk_of s h = s.chunks.(h lsr chunk_bits)
let slot h = (h land (chunk - 1)) * stride

(* The head of halfword [h] of [s]; 0 where nothing was discovered. *)
let head_of s h =
  let c = chunk_of s h in
  if Bytes.length c = 0 then 0 else get32 c (slot h)

let discovered s h = size_of_head (head_of s h) <> 0

(* Index of the section holding [addr], or -1. Code sections are few, so a
   scan beats anything cleverer. *)
let rec section_from secs addr k =
  if k = Array.length secs then -1
  else
    let s = secs.(k) in
    if addr >= s.base && addr < s.base + Bytes.length s.data then k
    else section_from secs addr (k + 1)

let section_of secs addr = section_from secs addr 0

(* The section holding the instruction that starts at [addr], or -1. Odd
   section offsets hold no instruction. *)
let locate t addr =
  let k = section_of t.secs addr in
  if k < 0 then -1
  else
    let s = t.secs.(k) in
    let off = addr - s.base in
    if off land 1 <> 0 || not (discovered s (off / 2)) then -1 else k

let decode_at s off =
  let len = Bytes.length s.data in
  if off + 2 > len then Decode.Illegal "past the section"
  else
    let lo = Bytes.get_uint16_le s.data off in
    let hi = if off + 4 <= len then Bytes.get_uint16_le s.data (off + 2) else 0 in
    Decode.decode ~lo ~hi

let record s h inst size kind =
  let i = h lsr chunk_bits in
  if Bytes.length s.chunks.(i) = 0 then s.chunks.(i) <- Bytes.make (chunk * stride) '\000';
  let b = s.chunks.(i) and f = slot h in
  set32 b f
    (size lor (kind_code kind lsl 3) lor (ext_code (Ext.required inst) lsl 7)
    lor (offset_of inst lsl 10));
  set32 b (f + f_uses) (Inst.uses_mask inst);
  set32 b (f + f_defs) (Inst.defs_mask inst)

(* [f chunk offset h] for each halfword [h] of [s] where an instruction was
   discovered, in order, with the chunk and offset of its facts. *)
let iter_halfwords s f =
  for i = 0 to Array.length s.chunks - 1 do
    let c = s.chunks.(i) in
    if Bytes.length c > 0 then
      for j = 0 to chunk - 1 do
        let p = j * stride in
        if size_of_head (get32 c p) <> 0 then f c p ((i lsl chunk_bits) + j)
      done
  done

let of_binfile_at (bin : Binfile.t) ~roots =
  let secs =
    Binfile.code_sections bin
    |> List.map (fun (s : Binfile.section) ->
           let halfwords = (Bytes.length s.sec_data + 1) / 2 in
           { base = s.sec_addr; data = s.sec_data;
             chunks = Array.make ((halfwords + chunk - 1) / chunk) Bytes.empty })
    |> Array.of_list
  in
  let t = { secs; count = 0; bytes = 0 } in
  let stack = ref (Array.make 256 0) and depth = ref 0 in
  let push a =
    if !depth = Array.length !stack then begin
      let bigger = Array.make (2 * !depth) 0 in
      Array.blit !stack 0 bigger 0 !depth;
      stack := bigger
    end;
    !stack.(!depth) <- a;
    incr depth
  in
  List.iter push roots;
  while !depth > 0 do
    decr depth;
    let addr = !stack.(!depth) in
    let k = section_of secs addr in
    if k >= 0 then begin
      let s = secs.(k) in
      let off = addr - s.base in
      if off land 1 = 0 && not (discovered s (off / 2)) then
        match decode_at s off with
        (* unrecognized bytes are left to lazy runtime rewriting *)
        | Decode.Illegal _ -> ()
        | Decode.Ok (inst, size) -> (
            let kind = kind_of_inst inst in
            record s (off / 2) inst size kind;
            t.count <- t.count + 1;
            t.bytes <- t.bytes + size;
            let next = addr + size and target = addr + offset_of inst in
            match kind with
            | K_fallthrough | K_syscall | K_indirect_call -> push next
            | K_branch | K_call ->
                push next;
                push target
            | K_jump -> push target
            | K_indirect_jump | K_ret | K_halt -> ())
    end
  done;
  let ordinal = ref 0 in
  Array.iter
    (fun s ->
      iter_halfwords s (fun c p _ ->
          set32 c (p + f_ordinal) !ordinal;
          incr ordinal))
    secs;
  t

let of_binfile (bin : Binfile.t) =
  let roots =
    bin.Binfile.entry :: List.map (fun s -> s.Binfile.sym_addr) bin.Binfile.symbols
  in
  of_binfile_at bin ~roots

(* The discovered instruction at halfword [h] of [s], decoded again. *)
let insn_of s h =
  match decode_at s (2 * h) with
  | Decode.Ok (inst, size) -> { addr = s.base + (2 * h); inst; size }
  | Decode.Illegal _ -> assert false

let find t addr =
  let k = locate t addr in
  if k < 0 then None else Some (insn_of t.secs.(k) ((addr - t.secs.(k).base) / 2))

let at t addr = match find t addr with Some i -> i | None -> raise Not_found

let iter t f = Array.iter (fun s -> iter_halfwords s (fun _ _ h -> f (insn_of s h))) t.secs

(* [iter_halfwords] unrolled, which saves a closure call per instruction
   of every whole-binary pass. *)
let iter_facts t f =
  Array.iter
    (fun s ->
      for i = 0 to Array.length s.chunks - 1 do
        let c = s.chunks.(i) in
        if Bytes.length c > 0 then
          for j = 0 to chunk - 1 do
            let p = j * stride in
            let w = get32 c p in
            if size_of_head w <> 0 then
              let addr = s.base + (2 * ((i lsl chunk_bits) + j)) in
              f ~addr ~size:(size_of_head w) ~kind:(kind_of_head w)
                ~target:(addr + offset_of_head w) ~ext:(ext_of_head w)
                ~uses:(get_mask c (p + f_uses)) ~defs:(get_mask c (p + f_defs))
          done
      done)
    t.secs

(* built back to front, so no sort and no reversal *)
let to_list t =
  let l = ref [] in
  for k = Array.length t.secs - 1 downto 0 do
    let s = t.secs.(k) in
    for h = (Array.length s.chunks * chunk) - 1 downto 0 do
      if discovered s h then l := insn_of s h :: !l
    done
  done;
  !l

let count t = t.count
let covered_bytes t = t.bytes

(* The word at [field] of the facts of the instruction at [addr], or
   [none]: one section scan and one chunk read. *)
let fact t addr field ~none =
  let k = section_of t.secs addr in
  if k < 0 then none
  else
    let s = t.secs.(k) in
    let off = addr - s.base in
    if off land 1 <> 0 then none
    else
      let c = chunk_of s (off / 2) and p = slot (off / 2) in
      if Bytes.length c = 0 || size_of_head (get32 c p) = 0 then none
      else get32 c (p + field)

(* [fact], raising [Not_found] for an address that starts no instruction
   (a word is 32 bits, so [min_int] is never one) *)
let fact_exn t addr field =
  let w = fact t addr field ~none:min_int in
  if w = min_int then raise Not_found else w

let size_at t addr = size_of_head (fact t addr 0 ~none:0)
let ext_at t addr = ext_of_head (fact t addr 0 ~none:0)
let target_at t addr = addr + offset_of_head (fact_exn t addr 0)
let uses_at t addr = fact_exn t addr f_uses land 0xFFFF_FFFF
let defs_at t addr = fact_exn t addr f_defs land 0xFFFF_FFFF
let ordinal t addr = fact t addr f_ordinal ~none:(-1)

let is_covered t addr = size_at t addr > 0 || size_at t (addr - 2) = 4

let next_insn t addr =
  let n = size_at t addr in
  if n = 0 then None else find t (addr + n)

let pp_insn fmt i = Format.fprintf fmt "%08x: %a" i.addr Inst.pp i.inst
