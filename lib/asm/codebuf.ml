type target = Lbl of string | Abs of int

type fixup =
  | Fbranch of Inst.branch_cond * Reg.t * Reg.t * target
  | Fjal of Reg.t * target
  | Fcj of target
  | Fcbeqz of Reg.t * target
  | Fcbnez of Reg.t * target
  | Fla_hi of Reg.t * target  (* lui rd, hi20(addr) *)
  | Fla_lo of Reg.t * target  (* addi rd, rd, lo12(addr) *)
  | Fload_lo of Inst.mem_width * Reg.t * Reg.t * target
      (* load rd, lo12(addr)(base) *)
  | Fvan_hi of Reg.t * target  (* auipc rd, hi20(target - pc) *)
  | Fvan_lo of Reg.t * target  (* jalr x0, lo12(target - pc_of_auipc)(rd) *)
  | Fdword of target

type t = {
  buf : Buffer.t;
  scratch : bytes;  (* one instruction's encoding; per buffer, so that
                       buffers on different domains never share it *)
  labels : (string, int) Hashtbl.t;
  mutable fixups : (int * fixup) list;  (* offset, pending patch *)
  mutable exts : Ext.t;
}

let create () =
  { buf = Buffer.create 256;
    scratch = Bytes.create 4;
    labels = Hashtbl.create 16;
    fixups = [];
    exts = Ext.base }

let size t = Buffer.length t.buf

let note_ext t i =
  match Ext.required i with
  | Some e -> t.exts <- Ext.union t.exts (Ext.of_list [ e ])
  | None -> ()

let inst t i =
  note_ext t i;
  let n = Encode.write t.scratch 0 i in
  Buffer.add_subbytes t.buf t.scratch 0 n

let insts t is = List.iter (inst t) is

let label t name =
  if Hashtbl.mem t.labels name then
    invalid_arg (Printf.sprintf "Codebuf.label: %s already bound" name);
  Hashtbl.replace t.labels name (size t)

let has_label t name = Hashtbl.mem t.labels name
let label_offset t name =
  match Hashtbl.find_opt t.labels name with
  | Some off -> off
  | None -> raise Not_found

let add_fixup t bytes_reserved fx =
  t.fixups <- (size t, fx) :: t.fixups;
  Buffer.add_string t.buf (String.make bytes_reserved '\000')

let branch_l t c rs1 rs2 l = add_fixup t 4 (Fbranch (c, rs1, rs2, Lbl l))
let jal_l t rd l = add_fixup t 4 (Fjal (rd, Lbl l))
let j_l t l = jal_l t Reg.x0 l

let cj_l t l =
  t.exts <- Ext.union t.exts (Ext.of_list [ Ext.C ]);
  add_fixup t 2 (Fcj (Lbl l))

let cbeqz_l t rs1 l =
  t.exts <- Ext.union t.exts (Ext.of_list [ Ext.C ]);
  add_fixup t 2 (Fcbeqz (rs1, Lbl l))

let cbnez_l t rs1 l =
  t.exts <- Ext.union t.exts (Ext.of_list [ Ext.C ]);
  add_fixup t 2 (Fcbnez (rs1, Lbl l))

let la_l t rd l =
  add_fixup t 4 (Fla_hi (rd, Lbl l));
  add_fixup t 4 (Fla_lo (rd, Lbl l))

let lui_hi_l t rd l = add_fixup t 4 (Fla_hi (rd, Lbl l))
let addi_lo_l t rd l = add_fixup t 4 (Fla_lo (rd, Lbl l))
let load_lo_l t width ~rd ~base l = add_fixup t 4 (Fload_lo (width, rd, base, Lbl l))

let jal_abs t rd target = add_fixup t 4 (Fjal (rd, Abs target))
let branch_abs t c rs1 rs2 target = add_fixup t 4 (Fbranch (c, rs1, rs2, Abs target))

let vanilla_jump_abs t rd target =
  add_fixup t 4 (Fvan_hi (rd, Abs target));
  add_fixup t 4 (Fvan_lo (rd, Abs target))

let vanilla_jump_l t rd l =
  add_fixup t 4 (Fvan_hi (rd, Lbl l));
  add_fixup t 4 (Fvan_lo (rd, Lbl l))

let li t rd v =
  if Encode.fits_signed v 12 then inst t (Inst.Opi (Inst.Addi, rd, Reg.x0, v))
  else if Encode.fits_signed v 32 then begin
    inst t (Inst.Lui (rd, Encode.hi20 v));
    let lo = Encode.lo12 v in
    if lo <> 0 then inst t (Inst.Opi (Inst.Addi, rd, rd, lo))
  end
  else invalid_arg (Printf.sprintf "Codebuf.li: %d out of 32-bit range" v)

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let rec fill_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then fill_digits b (i - 1) (n / 10)

(* one allocation, where [pfx ^ string_of_int n] makes three *)
let name pfx n =
  if n < 0 then invalid_arg "Codebuf.name: negative";
  let p = String.length pfx in
  let b = Bytes.create (p + digits n) in
  Bytes.blit_string pfx 0 b 0 p;
  fill_digits b (Bytes.length b - 1) n;
  Bytes.unsafe_to_string b

let la_abs t rd v =
  inst t (Inst.Lui (rd, Encode.hi20 v));
  let lo = Encode.lo12 v in
  if lo <> 0 then inst t (Inst.Opi (Inst.Addi, rd, rd, lo))

let byte t v = Buffer.add_uint8 t.buf (v land 0xFF)
let u16 t v = Buffer.add_uint16_le t.buf (v land 0xFFFF)

let u32 t v =
  u16 t (v land 0xFFFF);
  u16 t ((v lsr 16) land 0xFFFF)

let u64 t v = Buffer.add_int64_le t.buf v
let space t n = Buffer.add_string t.buf (String.make n '\000')

let pad_to t off =
  let cur = Buffer.length t.buf in
  if off < cur then
    invalid_arg (Printf.sprintf "Codebuf.pad_to: offset %d below size %d" off cur);
  space t (off - cur)
let dword_label t l = add_fixup t 8 (Fdword (Lbl l))
let exts t = t.exts

let link t ~base ~resolve =
  let bytes = Buffer.to_bytes t.buf in
  let addr_of = function
    | Abs a -> a
    | Lbl l -> (
        match Hashtbl.find_opt t.labels l with
        | Some off -> base + off
        | None -> (
            match resolve l with
            | Some a -> a
            | None -> invalid_arg (Printf.sprintf "Codebuf.link: unresolved label %s" l)))
  in
  let patch_inst off i =
    (try ignore (Encode.write bytes off i)
     with Invalid_argument msg ->
       invalid_arg (Printf.sprintf "Codebuf.link: at offset %d: %s" off msg))
  in
  List.iter
    (fun (off, fx) ->
      let pc = base + off in
      match fx with
      | Fbranch (c, rs1, rs2, tg) -> patch_inst off (Inst.Branch (c, rs1, rs2, addr_of tg - pc))
      | Fjal (rd, tg) -> patch_inst off (Inst.Jal (rd, addr_of tg - pc))
      | Fcj tg -> patch_inst off (Inst.C_j (addr_of tg - pc))
      | Fcbeqz (rs1, tg) -> patch_inst off (Inst.C_beqz (rs1, addr_of tg - pc))
      | Fcbnez (rs1, tg) -> patch_inst off (Inst.C_bnez (rs1, addr_of tg - pc))
      | Fla_hi (rd, tg) -> patch_inst off (Inst.Lui (rd, Encode.hi20 (addr_of tg)))
      | Fla_lo (rd, tg) ->
          patch_inst off (Inst.Opi (Inst.Addi, rd, rd, Encode.lo12 (addr_of tg)))
      | Fload_lo (width, rd, base, tg) ->
          patch_inst off
            (Inst.Load
               { width; unsigned = false; rd; rs1 = base;
                 imm = Encode.lo12 (addr_of tg) })
      | Fvan_hi (rd, tg) ->
          patch_inst off (Inst.Auipc (rd, Encode.hi20 (addr_of tg - pc)))
      | Fvan_lo (rd, tg) ->
          (* pc of the auipc is 4 bytes earlier. *)
          patch_inst off (Inst.Jalr (Reg.x0, rd, Encode.lo12 (addr_of tg - (pc - 4))))
      | Fdword tg -> Bytes.set_int64_le bytes off (Int64.of_int (addr_of tg)))
    t.fixups;
  bytes
