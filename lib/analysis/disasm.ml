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

let flow_of { addr; inst; _ } =
  match inst with
  | Inst.Branch (_, _, _, off) -> Branch (addr + off)
  | Inst.C_beqz (_, off) | Inst.C_bnez (_, off) -> Branch (addr + off)
  | Inst.Jal (rd, off) ->
      if Reg.equal rd Reg.x0 then Jump (addr + off) else Call (addr + off)
  | Inst.C_j off -> Jump (addr + off)
  | Inst.Jalr (rd, rs1, imm) ->
      if Reg.equal rd Reg.x0 then
        if Reg.equal rs1 Reg.ra && imm = 0 then Ret else Indirect_jump
      else Indirect_call
  | Inst.Xcheck_jalr (rd, _, _) ->
      if Reg.equal rd Reg.x0 then Indirect_jump else Indirect_call
  | Inst.C_jr rs1 -> if Reg.equal rs1 Reg.ra then Ret else Indirect_jump
  | Inst.C_jalr _ -> Indirect_call
  | Inst.Ecall -> Syscall
  | Inst.Ebreak | Inst.C_ebreak -> Halt
  | Inst.Lui _ | Inst.Auipc _ | Inst.Load _ | Inst.Store _ | Inst.Op _
  | Inst.Opi _ | Inst.C_nop | Inst.C_addi _ | Inst.C_li _ | Inst.C_mv _
  | Inst.C_add _ | Inst.C_ld _ | Inst.C_sd _ | Inst.C_lw _ | Inst.C_sw _
  | Inst.C_lui _ | Inst.C_addiw _ | Inst.C_andi _ | Inst.C_alu _
  | Inst.C_slli _ | Inst.Vsetvli _
  | Inst.Vle _ | Inst.Vlse _ | Inst.Vse _ | Inst.Vsse _
  | Inst.Vop_vv _ | Inst.Vop_vx _ | Inst.Vmv_v_x _
  | Inst.Vmv_x_s _ | Inst.Vredsum _ | Inst.P_add16 _ | Inst.P_smaqa _ ->
      Fallthrough

(* One slot per halfword of each code section: instructions are 2-byte
   aligned, so a jump target that lands inside another instruction still
   has a slot of its own and decodes independently. *)
type section = {
  base : int;
  data : bytes;
  slots : insn array;  (* [none] where nothing was discovered *)
}

type t = {
  secs : section array;  (* ascending by address *)
  mutable count : int;
  mutable bytes : int;
}

(* The empty slot. Tested by its size, not physically, so a marshaled
   copy of a [t] still reads correctly. *)
let none = { addr = -1; inst = Inst.C_nop; size = 0 }
let empty i = i.size = 0

(* Index of the section holding [addr], or -1. Code sections are few, so a
   scan beats anything cleverer. *)
let section_of secs addr =
  let rec go k =
    if k = Array.length secs then -1
    else
      let s = secs.(k) in
      if addr >= s.base && addr < s.base + Bytes.length s.data then k else go (k + 1)
  in
  go 0

(* The instruction starting at [addr], or [none]. Odd section offsets hold
   no instruction. *)
let slot t addr =
  let k = section_of t.secs addr in
  if k < 0 then none
  else
    let s = t.secs.(k) in
    let off = addr - s.base in
    if off land 1 <> 0 then none else s.slots.(off lsr 1)

(* The instruction at offset [off] of the section, or [none]. *)
let decode_at s off =
  let len = Bytes.length s.data in
  if off + 2 > len then none
  else
    let lo = Bytes.get_uint16_le s.data off in
    let hi = if off + 4 <= len then Bytes.get_uint16_le s.data (off + 2) else 0 in
    match Decode.decode ~lo ~hi with
    | Decode.Ok (inst, size) -> { addr = s.base + off; inst; size }
    | Decode.Illegal _ -> none

let of_binfile_at (bin : Binfile.t) ~roots =
  let secs =
    Binfile.code_sections bin
    |> List.map (fun (s : Binfile.section) ->
           { base = s.sec_addr;
             data = s.sec_data;
             slots = Array.make ((Bytes.length s.sec_data + 1) / 2) none })
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
      if off land 1 = 0 && empty s.slots.(off lsr 1) then
        let ins = decode_at s off in
        (* unrecognized bytes are left to lazy runtime rewriting *)
        if not (empty ins) then begin
          s.slots.(off lsr 1) <- ins;
          t.count <- t.count + 1;
          t.bytes <- t.bytes + ins.size;
          let next = addr + ins.size in
          match flow_of ins with
          | Fallthrough | Syscall | Indirect_call -> push next
          | Branch target | Call target ->
              push next;
              push target
          | Jump target -> push target
          | Indirect_jump | Ret | Halt -> ()
        end
    end
  done;
  t

let of_binfile (bin : Binfile.t) =
  let roots =
    bin.Binfile.entry :: List.map (fun s -> s.Binfile.sym_addr) bin.Binfile.symbols
  in
  of_binfile_at bin ~roots

let find t addr =
  let i = slot t addr in
  if empty i then None else Some i

let iter t f =
  Array.iter (fun s -> Array.iter (fun i -> if not (empty i) then f i) s.slots) t.secs

(* built back to front, so no sort and no reversal *)
let to_list t =
  let l = ref [] in
  for k = Array.length t.secs - 1 downto 0 do
    let slots = t.secs.(k).slots in
    for j = Array.length slots - 1 downto 0 do
      if not (empty slots.(j)) then l := slots.(j) :: !l
    done
  done;
  !l

let count t = t.count
let covered_bytes t = t.bytes

let is_covered t addr =
  (not (empty (slot t addr))) || (slot t (addr - 2)).size = 4

let next_insn t addr =
  let i = slot t addr in
  if empty i then None else find t (addr + i.size)

let pp_insn fmt i = Format.fprintf fmt "%08x: %a" i.addr Inst.pp i.inst
