type kind =
  | Elementwise of Inst.vop
  | Axpy of Reg.t
  | Copy
  | Fill of Reg.t
  | Reduce of Reg.t

type candidate = {
  c_addr : int;
  c_len : int;
  c_exit : int;
  c_kind : kind;
  c_sew : Inst.sew;
  c_p1 : Reg.t;
  c_p2 : Reg.t;
  c_p3 : Reg.t;
  c_n : Reg.t;
  c_st1 : int;
  c_st2 : int;
  c_st3 : int;
  c_x : Reg.t;
  c_y : Reg.t;
  c_z : Reg.t;
}

let sew_of_width = function
  | Inst.D -> Some (Inst.E64, 8)
  | Inst.W -> Some (Inst.E32, 4)
  | Inst.B | Inst.H -> None

let elementwise_ops = function
  | Inst.E64 -> [ (Inst.Add, Inst.Vadd); (Inst.Sub, Inst.Vsub); (Inst.Mul, Inst.Vmul) ]
  | Inst.E32 -> [ (Inst.Addw, Inst.Vadd); (Inst.Subw, Inst.Vsub); (Inst.Mulw, Inst.Vmul) ]
  | Inst.E16 | Inst.E8 -> []

let match_elementwise (b : Cfg.block) =
  match b.Cfg.b_insns with
  | [ { inst = Inst.Load { width = w1; unsigned = false; rd = x; rs1 = p1; imm = 0 }; _ };
      { inst = Inst.Load { width = w2; unsigned = false; rd = y; rs1 = p2; imm = 0 }; _ };
      { inst = Inst.Op (op, z, x', y'); _ };
      { inst = Inst.Store { width = w3; rs2 = z'; rs1 = p3; imm = 0 }; _ };
      { inst = Inst.Opi (Inst.Addi, p1a, p1b, s1); _ };
      { inst = Inst.Opi (Inst.Addi, p2a, p2b, s2); _ };
      { inst = Inst.Opi (Inst.Addi, p3a, p3b, s3); _ };
      { inst = Inst.Opi (Inst.Addi, na, nb, -1); _ };
      ({ inst = Inst.Branch (Inst.Bne, nc, z0, off); _ } as bi) ]
    when Reg.equal z0 Reg.x0 -> (
      match sew_of_width w1 with
      | None -> None
      | Some (sew, sz) ->
          let vop = List.assoc_opt op (elementwise_ops sew) in
          let eq = Reg.equal in
          let distinct =
            (not (eq x y)) && (not (eq x p1)) && (not (eq y p2)) && (not (eq z p3))
            && (not (eq p1 p2)) && (not (eq p1 p3)) && (not (eq p2 p3))
            && (not (eq na p1)) && (not (eq na p2)) && (not (eq na p3))
            && (not (eq na x)) && (not (eq na y)) && not (eq na z)
          in
          if
            vop <> None && w2 = w1 && w3 = w1
            && eq x x' && eq y y' && eq z z'
            && eq p1a p1 && eq p1b p1 && s1 >= sz
            && eq p2a p2 && eq p2b p2 && s2 >= sz
            && eq p3a p3 && eq p3b p3 && s3 >= sz
            && eq na nb && eq na nc && distinct
            && bi.Disasm.addr + off = b.Cfg.b_addr
          then
            let exit_addr = bi.Disasm.addr + bi.Disasm.size in
            Some
              { c_addr = b.Cfg.b_addr;
                c_len = exit_addr - b.Cfg.b_addr;
                c_exit = exit_addr;
                c_kind = Elementwise (Option.get vop);
                c_sew = sew;
                c_p1 = p1;
                c_p2 = p2;
                c_p3 = p3;
                c_n = na;
                c_st1 = s1;
                c_st2 = s2;
                c_st3 = s3;
                c_x = x;
                c_y = y;
                c_z = z }
          else None)
  | _ -> None

let match_axpy (b : Cfg.block) =
  match b.Cfg.b_insns with
  | [ { inst = Inst.Load { width = w1; unsigned = false; rd = y; rs1 = p1; imm = 0 }; _ };
      { inst = Inst.Op (mulop, t, y', s); _ };
      { inst = Inst.Load { width = w2; unsigned = false; rd = z; rs1 = p2; imm = 0 }; _ };
      { inst = Inst.Op (addop, z', z'', t'); _ };
      { inst = Inst.Store { width = w3; rs2 = z3; rs1 = p2'; imm = 0 }; _ };
      { inst = Inst.Opi (Inst.Addi, p1a, p1b, s1); _ };
      { inst = Inst.Opi (Inst.Addi, p2a, p2b, s2); _ };
      { inst = Inst.Opi (Inst.Addi, na, nb, -1); _ };
      ({ inst = Inst.Branch (Inst.Bne, nc, z0, off); _ } as bi) ]
    when Reg.equal z0 Reg.x0 -> (
      match sew_of_width w1 with
      | None -> None
      | Some (sew, sz) ->
          let eq = Reg.equal in
          let ops_ok =
            match sew with
            | Inst.E64 -> mulop = Inst.Mul && addop = Inst.Add
            | Inst.E32 -> mulop = Inst.Mulw && addop = Inst.Addw
            | Inst.E16 | Inst.E8 -> false
          in
          let distinct =
            (not (eq y z)) && (not (eq y t)) && (not (eq z t))
            && (not (eq p1 p2)) && (not (eq s y)) && (not (eq s t)) && (not (eq s z))
            && (not (eq na p1)) && (not (eq na p2)) && (not (eq na s))
            && (not (eq na y)) && (not (eq na t)) && not (eq na z)
          in
          if
            ops_ok && w2 = w1 && w3 = w1
            && eq y y' && eq t t' && eq z z'' && eq z z' && eq z z3 && eq p2 p2'
            && eq p1a p1 && eq p1b p1 && s1 >= sz
            && eq p2a p2 && eq p2b p2 && s2 >= sz
            && eq na nb && eq na nc && distinct
            && bi.Disasm.addr + off = b.Cfg.b_addr
          then
            let exit_addr = bi.Disasm.addr + bi.Disasm.size in
            Some
              { c_addr = b.Cfg.b_addr;
                c_len = exit_addr - b.Cfg.b_addr;
                c_exit = exit_addr;
                c_kind = Axpy s;
                c_sew = sew;
                c_p1 = p1;
                c_p2 = p2;
                c_p3 = p2;
                c_n = na;
                c_st1 = s1;
                c_st2 = s2;
                c_st3 = s2;
                c_x = y;
                c_y = t;
                c_z = z }
          else None)
  | _ -> None

let match_copy (b : Cfg.block) =
  match b.Cfg.b_insns with
  | [ { inst = Inst.Load { width = w1; unsigned = false; rd = x; rs1 = p1; imm = 0 }; _ };
      { inst = Inst.Store { width = w2; rs2 = x'; rs1 = p2; imm = 0 }; _ };
      { inst = Inst.Opi (Inst.Addi, p1a, p1b, s1); _ };
      { inst = Inst.Opi (Inst.Addi, p2a, p2b, s2); _ };
      { inst = Inst.Opi (Inst.Addi, na, nb, -1); _ };
      ({ inst = Inst.Branch (Inst.Bne, nc, z0, off); _ } as bi) ]
    when Reg.equal z0 Reg.x0 -> (
      match sew_of_width w1 with
      | None -> None
      | Some (sew, sz) ->
          let eq = Reg.equal in
          let distinct =
            (not (eq x p1)) && (not (eq x p2)) && (not (eq p1 p2))
            && (not (eq na p1)) && (not (eq na p2)) && not (eq na x)
          in
          if
            w2 = w1 && eq x x'
            && eq p1a p1 && eq p1b p1 && s1 >= sz
            && eq p2a p2 && eq p2b p2 && s2 >= sz
            && eq na nb && eq na nc && distinct
            && bi.Disasm.addr + off = b.Cfg.b_addr
          then
            let exit_addr = bi.Disasm.addr + bi.Disasm.size in
            Some
              { c_addr = b.Cfg.b_addr;
                c_len = exit_addr - b.Cfg.b_addr;
                c_exit = exit_addr;
                c_kind = Copy;
                c_sew = sew;
                c_p1 = p1;
                c_p2 = p2;
                c_p3 = p2;
                c_n = na;
                c_st1 = s1;
                c_st2 = s2;
                c_st3 = s2;
                c_x = x;
                c_y = x;
                c_z = x }
          else None)
  | _ -> None

let match_fill (b : Cfg.block) =
  match b.Cfg.b_insns with
  | [ { inst = Inst.Store { width = w1; rs2 = s; rs1 = p1; imm = 0 }; _ };
      { inst = Inst.Opi (Inst.Addi, p1a, p1b, s1); _ };
      { inst = Inst.Opi (Inst.Addi, na, nb, -1); _ };
      ({ inst = Inst.Branch (Inst.Bne, nc, z0, off); _ } as bi) ]
    when Reg.equal z0 Reg.x0 -> (
      match sew_of_width w1 with
      | None -> None
      | Some (sew, sz) ->
          let eq = Reg.equal in
          if
            (not (eq s p1)) && (not (eq na p1)) && (not (eq na s))
            && eq p1a p1 && eq p1b p1 && s1 >= sz
            && eq na nb && eq na nc
            && bi.Disasm.addr + off = b.Cfg.b_addr
          then
            let exit_addr = bi.Disasm.addr + bi.Disasm.size in
            Some
              { c_addr = b.Cfg.b_addr;
                c_len = exit_addr - b.Cfg.b_addr;
                c_exit = exit_addr;
                c_kind = Fill s;
                c_sew = sew;
                c_p1 = p1;
                c_p2 = p1;
                c_p3 = p1;
                c_n = na;
                c_st1 = s1;
                c_st2 = s1;
                c_st3 = s1;
                c_x = Reg.x0;
                c_y = Reg.x0;
                c_z = Reg.x0 }
          else None)
  | _ -> None

let match_reduce (b : Cfg.block) =
  match b.Cfg.b_insns with
  | [ { inst = Inst.Load { width = w1; unsigned = false; rd = x; rs1 = p1; imm = 0 }; _ };
      { inst = Inst.Op (addop, acc, a1, a2); _ };
      { inst = Inst.Opi (Inst.Addi, p1a, p1b, s1); _ };
      { inst = Inst.Opi (Inst.Addi, na, nb, -1); _ };
      ({ inst = Inst.Branch (Inst.Bne, nc, z0, off); _ } as bi) ]
    when Reg.equal z0 Reg.x0 -> (
      match sew_of_width w1 with
      | None -> None
      | Some (sew, sz) ->
          let eq = Reg.equal in
          let ops_ok =
            match sew with
            | Inst.E64 -> addop = Inst.Add
            | Inst.E32 -> addop = Inst.Addw
            | Inst.E16 | Inst.E8 -> false
          in
          let operands_ok = (eq a1 acc && eq a2 x) || (eq a1 x && eq a2 acc) in
          let distinct =
            (not (eq x acc)) && (not (eq x p1)) && (not (eq acc p1))
            && (not (eq na p1)) && (not (eq na x)) && not (eq na acc)
          in
          if
            ops_ok && operands_ok && distinct
            && eq p1a p1 && eq p1b p1 && s1 >= sz
            && eq na nb && eq na nc
            && bi.Disasm.addr + off = b.Cfg.b_addr
          then
            let exit_addr = bi.Disasm.addr + bi.Disasm.size in
            Some
              { c_addr = b.Cfg.b_addr;
                c_len = exit_addr - b.Cfg.b_addr;
                c_exit = exit_addr;
                c_kind = Reduce acc;
                c_sew = sew;
                c_p1 = p1;
                c_p2 = p1;
                c_p3 = p1;
                c_n = na;
                c_st1 = s1;
                c_st2 = s1;
                c_st3 = s1;
                c_x = x;
                c_y = x;
                c_z = x }
          else None)
  | _ -> None

let match_block b =
  let rec first = function
    | [] -> None
    | m :: rest -> ( match m b with Some c -> Some c | None -> first rest)
  in
  first [ match_elementwise; match_axpy; match_copy; match_fill; match_reduce ]

let find cfg live =
  Cfg.blocks cfg
  |> List.filter_map (fun b ->
         match match_block b with
         | None -> None
         | Some c -> (
             (* the vector version does not produce x, y, z: require them
                dead at the loop exit. *)
             match Liveness.live_in_at live c.c_exit with
             | None -> Some c
             | Some mask ->
                 if
                   (not (Regmask.mem c.c_x mask))
                   && (not (Regmask.mem c.c_y mask))
                   && not (Regmask.mem c.c_z mask)
                 then Some c
                 else None))

(* Fresh local labels. Worker domains rewrite concurrently (a cold
   [Chbp.rewrite], a lazy [Chbp.extend]), so the counter is atomic: a lost
   update could hand one code buffer the same label twice. *)
let gensym =
  let c = Atomic.make 0 in
  fun pfx -> Printf.sprintf ".U%s%d" pfx (Atomic.fetch_and_add c 1 + 1)

let emit_vector_loop cb c =
  let v1 = Reg.v_of_int 1 and v2 = Reg.v_of_int 2 and v3 = Reg.v_of_int 3 in
  let scalars =
    match c.c_kind with
    | Axpy s | Fill s | Reduce s -> [ s ]
    | Elementwise _ | Copy -> []
  in
  let exclude = Regmask.of_list ([ c.c_p1; c.c_p2; c.c_p3; c.c_n ] @ scalars) in
  let sz = Inst.sew_bytes c.c_sew in
  match Scavenge.pick ~n:3 ~exclude with
  | [ t; toff; tst ] ->
      Scavenge.with_spills cb [ t; toff; tst ] (fun () ->
          let loop = gensym "vec" and done_l = gensym "vecdone" in
          let lg =
            match c.c_sew with Inst.E64 -> 3 | Inst.E32 -> 2 | Inst.E16 -> 1 | Inst.E8 -> 0
          in
          (* unit-stride pointers use vle/vse; column walks load the byte
             stride into [tst] and use the strided forms *)
          let vload vd p st =
            if st = sz then Codebuf.inst cb (Inst.Vle (c.c_sew, vd, p))
            else begin
              Codebuf.li cb tst st;
              Codebuf.inst cb (Inst.Vlse (c.c_sew, vd, p, tst))
            end
          in
          let vstore vs p st =
            if st = sz then Codebuf.inst cb (Inst.Vse (c.c_sew, vs, p))
            else begin
              Codebuf.li cb tst st;
              Codebuf.inst cb (Inst.Vsse (c.c_sew, vs, p, tst))
            end
          in
          (* p += vl * st *)
          let bump p st =
            if st = sz then begin
              Codebuf.inst cb (Inst.Opi (Inst.Slli, toff, t, lg));
              Codebuf.inst cb (Inst.Op (Inst.Add, p, p, toff))
            end
            else begin
              Codebuf.li cb tst st;
              Codebuf.inst cb (Inst.Op (Inst.Mul, toff, t, tst));
              Codebuf.inst cb (Inst.Op (Inst.Add, p, p, toff))
            end
          in
          Codebuf.label cb loop;
          Codebuf.inst cb (Inst.Vsetvli (t, c.c_n, c.c_sew));
          Codebuf.branch_l cb Inst.Beq t Reg.x0 done_l;
          (match c.c_kind with
          | Elementwise op ->
              vload v1 c.c_p1 c.c_st1;
              vload v2 c.c_p2 c.c_st2;
              Codebuf.inst cb (Inst.Vop_vv (op, v3, v1, v2));
              vstore v3 c.c_p3 c.c_st3
          | Axpy s ->
              vload v1 c.c_p1 c.c_st1;
              vload v2 c.c_p2 c.c_st2;
              Codebuf.inst cb (Inst.Vop_vx (Inst.Vmacc, v2, v1, s));
              vstore v2 c.c_p2 c.c_st2
          | Copy ->
              vload v1 c.c_p1 c.c_st1;
              vstore v1 c.c_p2 c.c_st2
          | Fill s ->
              Codebuf.inst cb (Inst.Vmv_v_x (v1, s));
              vstore v1 c.c_p1 c.c_st1
          | Reduce acc ->
              (* v3[0] <- sum(v1) + acc, read back into the accumulator *)
              vload v1 c.c_p1 c.c_st1;
              Codebuf.inst cb (Inst.Vmv_v_x (v2, acc));
              Codebuf.inst cb (Inst.Vredsum (v3, v1, v2));
              Codebuf.inst cb (Inst.Vmv_x_s (acc, v3)));
          bump c.c_p1 c.c_st1;
          (match c.c_kind with
          | Elementwise _ | Axpy _ | Copy -> bump c.c_p2 c.c_st2
          | Fill _ | Reduce _ -> ());
          (match c.c_kind with
          | Elementwise _ -> bump c.c_p3 c.c_st3
          | Axpy _ | Copy | Fill _ | Reduce _ -> ());
          Codebuf.inst cb (Inst.Op (Inst.Sub, c.c_n, c.c_n, t));
          Codebuf.j_l cb loop;
          Codebuf.label cb done_l)
  | _ -> assert false
