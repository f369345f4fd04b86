(* Fresh local labels. Worker domains rewrite concurrently (a cold
   [Chbp.rewrite], a lazy [Chbp.extend]), so the counter is atomic: a lost
   update could hand one code buffer the same label twice. *)
let gensym =
  let c = Atomic.make 0 in
  fun pfx -> Codebuf.name pfx (Atomic.fetch_and_add c 1 + 1)

let can_downgrade i = Inst.is_vector i || Inst.is_bitmanip i || Inst.is_packed_simd i

let width_of_sew = function
  | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D

let load_off sew rd rs1 imm =
  Inst.Load { width = width_of_sew sew; unsigned = false; rd; rs1; imm }

let store_off sew rs2 rs1 imm = Inst.Store { width = width_of_sew sew; rs2; rs1; imm }
let load_w sew rd rs1 = load_off sew rd rs1 0
let store_w sew rs2 rs1 = store_off sew rs2 rs1 0

let add_op = function Inst.E64 -> Inst.Add | Inst.E32 | Inst.E16 | Inst.E8 -> Inst.Addw
let sub_op = function Inst.E64 -> Inst.Sub | Inst.E32 | Inst.E16 | Inst.E8 -> Inst.Subw
let mul_op = function Inst.E64 -> Inst.Mul | Inst.E32 | Inst.E16 | Inst.E8 -> Inst.Mulw
let vlmax sew = Vregs.vlen_bytes / Inst.sew_bytes sew
let mv rd rs = Inst.Opi (Inst.Addi, rd, rs, 0)
let addi rd rs imm = Inst.Opi (Inst.Addi, rd, rs, imm)

(* Emit [body sew] either once (static width) or under a dispatch on the
   simulated vsew CSR. [tmp] may be clobbered by the dispatch, which counts
   the vsew code (0..3) down to zero; E64, and any out-of-range code, falls
   through to the first body. *)
let with_sew cb ~static_sew ~tmp body =
  match static_sew with
  | Some sew -> body sew
  | None ->
      let done_l = gensym ".Tsewdone" in
      let l8 = gensym ".Tsew" and l16 = gensym ".Tsew" and l32 = gensym ".Tsew" in
      Codebuf.la_abs cb tmp Vregs.base;
      Codebuf.inst cb
        (Inst.Load { width = Inst.D; unsigned = false; rd = tmp; rs1 = tmp; imm = Vregs.vsew_off });
      Codebuf.branch_l cb Inst.Beq tmp Reg.x0 l8;
      Codebuf.inst cb (addi tmp tmp (-1));
      Codebuf.branch_l cb Inst.Beq tmp Reg.x0 l16;
      Codebuf.inst cb (addi tmp tmp (-1));
      Codebuf.branch_l cb Inst.Beq tmp Reg.x0 l32;
      body Inst.E64;
      Codebuf.j_l cb done_l;
      List.iter
        (fun (s, lbl) ->
          Codebuf.label cb lbl;
          body s;
          if s <> Inst.E32 then Codebuf.j_l cb done_l)
        [ (Inst.E8, l8); (Inst.E16, l16); (Inst.E32, l32) ];
      Codebuf.label cb done_l

(* --- vector templates --------------------------------------------------- *)

let emit_vsetvli cb ~free ?vctx rd rs1 sew =
  let exclude =
    Regmask.union (Regmask.of_list [ rd; rs1 ])
      (match vctx with
      | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
      | None -> Regmask.empty)
  in
  match Scavenge.pick_free ~n:2 ~exclude ~free with
  | [ ta; tb ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          let base_reg =
            match vctx with
            | Some (rb, _) -> rb
            | None ->
                Codebuf.la_abs cb ta Vregs.base;
                ta
          in
          Codebuf.li cb tb (Encode.sew_code sew);
          Codebuf.inst cb
            (Inst.Store { width = Inst.D; rs2 = tb; rs1 = base_reg; imm = Vregs.vsew_off });
          (if Reg.equal rs1 Reg.x0 then
             if Reg.equal rd Reg.x0 then
               (* keep current vl *)
               Codebuf.inst cb
                 (Inst.Load
                    { width = Inst.D; unsigned = false; rd = tb; rs1 = base_reg; imm = Vregs.vl_off })
             else Codebuf.li cb tb (vlmax sew)
           else begin
             (* tb = min(rs1, vlmax) unsigned *)
             let skip = gensym ".Tclamp" in
             Codebuf.li cb tb (vlmax sew);
             Codebuf.branch_l cb Inst.Bgeu rs1 tb skip;
             Codebuf.inst cb (mv tb rs1);
             Codebuf.label cb skip
           end);
          Codebuf.inst cb
            (Inst.Store { width = Inst.D; rs2 = tb; rs1 = base_reg; imm = Vregs.vl_off });
          (match vctx with
          | Some (_, rv) -> Codebuf.inst cb (mv rv tb)
          | None -> ());
          if not (Reg.equal rd Reg.x0) then Codebuf.inst cb (mv rd tb))
  | _ -> assert false

let emit_vle cb ~full_strip ~free ?vctx sew vd rs1 =
  let exclude =
    Regmask.union (Regmask.of_list [ rs1 ])
      (match vctx with
      | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
      | None -> Regmask.empty)
  in
  match Scavenge.pick_free ~n:4 ~exclude ~free with
  | [ ta; tb; tc; td ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          let loop = gensym ".Tvle" and done_l = gensym ".Tvledone" in
          let sz = Inst.sew_bytes sew in
          let vl_reg =
            match vctx with
            | Some (rb, rv) ->
                Codebuf.inst cb (addi ta rb (Vregs.vreg_off vd));
                rv
            | None ->
                Codebuf.la_abs cb ta Vregs.base;
                Codebuf.inst cb
                  (Inst.Load { width = Inst.D; unsigned = false; rd = tb; rs1 = ta; imm = Vregs.vl_off });
                Codebuf.inst cb (addi ta ta (Vregs.vreg_off vd));
                tb
          in
          (* a full strip (vl = VLMAX) unrolls with no bumps, reading
             straight off the source register *)
          if full_strip then begin
            let generic = gensym ".Tvlegen" in
            Codebuf.inst cb (addi td Reg.x0 (vlmax sew));
            Codebuf.branch_l cb Inst.Bne vl_reg td generic;
            for e = 0 to vlmax sew - 1 do
              Codebuf.inst cb (load_off sew td rs1 (e * sz));
              Codebuf.inst cb (store_off sew td ta (e * sz))
            done;
            Codebuf.j_l cb done_l;
            Codebuf.label cb generic
          end;
          Codebuf.inst cb (mv tb vl_reg);
          Codebuf.inst cb (mv tc rs1);
          Codebuf.label cb loop;
          Codebuf.branch_l cb Inst.Beq tb Reg.x0 done_l;
          Codebuf.inst cb (load_w sew td tc);
          Codebuf.inst cb (store_w sew td ta);
          Codebuf.inst cb (addi tc tc sz);
          Codebuf.inst cb (addi ta ta sz);
          Codebuf.inst cb (addi tb tb (-1));
          Codebuf.j_l cb loop;
          Codebuf.label cb done_l)
  | _ -> assert false

let emit_vse cb ~full_strip ~free ?vctx sew vs3 rs1 =
  let exclude =
    Regmask.union (Regmask.of_list [ rs1 ])
      (match vctx with
      | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
      | None -> Regmask.empty)
  in
  match Scavenge.pick_free ~n:4 ~exclude ~free with
  | [ ta; tb; tc; td ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          let loop = gensym ".Tvse" and done_l = gensym ".Tvsedone" in
          let sz = Inst.sew_bytes sew in
          let vl_reg =
            match vctx with
            | Some (rb, rv) ->
                Codebuf.inst cb (addi ta rb (Vregs.vreg_off vs3));
                rv
            | None ->
                Codebuf.la_abs cb ta Vregs.base;
                Codebuf.inst cb
                  (Inst.Load { width = Inst.D; unsigned = false; rd = tb; rs1 = ta; imm = Vregs.vl_off });
                Codebuf.inst cb (addi ta ta (Vregs.vreg_off vs3));
                tb
          in
          if full_strip then begin
            let generic = gensym ".Tvsegen" in
            Codebuf.inst cb (addi td Reg.x0 (vlmax sew));
            Codebuf.branch_l cb Inst.Bne vl_reg td generic;
            for e = 0 to vlmax sew - 1 do
              Codebuf.inst cb (load_off sew td ta (e * sz));
              Codebuf.inst cb (store_off sew td rs1 (e * sz))
            done;
            Codebuf.j_l cb done_l;
            Codebuf.label cb generic
          end;
          Codebuf.inst cb (mv tb vl_reg);
          Codebuf.inst cb (mv tc rs1);
          Codebuf.label cb loop;
          Codebuf.branch_l cb Inst.Beq tb Reg.x0 done_l;
          Codebuf.inst cb (load_w sew td ta);
          Codebuf.inst cb (store_w sew td tc);
          Codebuf.inst cb (addi tc tc sz);
          Codebuf.inst cb (addi ta ta sz);
          Codebuf.inst cb (addi tb tb (-1));
          Codebuf.j_l cb loop;
          Codebuf.label cb done_l)
  | _ -> assert false

(* Strided load/store: the byte stride lives in a register, so only the
   generic pointer-walk loop applies (no unrolled constant-offset path). *)
let emit_vlse cb ~free ?vctx sew vd rs1 rs2 =
  let exclude =
    Regmask.union (Regmask.of_list [ rs1; rs2 ])
      (match vctx with
      | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
      | None -> Regmask.empty)
  in
  match Scavenge.pick_free ~n:4 ~exclude ~free with
  | [ ta; tb; tc; td ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          let loop = gensym ".Tvlse" and done_l = gensym ".Tvlsedone" in
          let sz = Inst.sew_bytes sew in
          let vl_reg =
            match vctx with
            | Some (rb, rv) ->
                Codebuf.inst cb (addi ta rb (Vregs.vreg_off vd));
                rv
            | None ->
                Codebuf.la_abs cb ta Vregs.base;
                Codebuf.inst cb
                  (Inst.Load { width = Inst.D; unsigned = false; rd = tb; rs1 = ta; imm = Vregs.vl_off });
                Codebuf.inst cb (addi ta ta (Vregs.vreg_off vd));
                tb
          in
          Codebuf.inst cb (mv tb vl_reg);
          Codebuf.inst cb (mv tc rs1);
          Codebuf.label cb loop;
          Codebuf.branch_l cb Inst.Beq tb Reg.x0 done_l;
          Codebuf.inst cb (load_w sew td tc);
          Codebuf.inst cb (store_w sew td ta);
          Codebuf.inst cb (Inst.Op (Inst.Add, tc, tc, rs2));
          Codebuf.inst cb (addi ta ta sz);
          Codebuf.inst cb (addi tb tb (-1));
          Codebuf.j_l cb loop;
          Codebuf.label cb done_l)
  | _ -> assert false

let emit_vsse cb ~free ?vctx sew vs3 rs1 rs2 =
  let exclude =
    Regmask.union (Regmask.of_list [ rs1; rs2 ])
      (match vctx with
      | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
      | None -> Regmask.empty)
  in
  match Scavenge.pick_free ~n:4 ~exclude ~free with
  | [ ta; tb; tc; td ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          let loop = gensym ".Tvsse" and done_l = gensym ".Tvssedone" in
          let sz = Inst.sew_bytes sew in
          let vl_reg =
            match vctx with
            | Some (rb, rv) ->
                Codebuf.inst cb (addi ta rb (Vregs.vreg_off vs3));
                rv
            | None ->
                Codebuf.la_abs cb ta Vregs.base;
                Codebuf.inst cb
                  (Inst.Load { width = Inst.D; unsigned = false; rd = tb; rs1 = ta; imm = Vregs.vl_off });
                Codebuf.inst cb (addi ta ta (Vregs.vreg_off vs3));
                tb
          in
          Codebuf.inst cb (mv tb vl_reg);
          Codebuf.inst cb (mv tc rs1);
          Codebuf.label cb loop;
          Codebuf.branch_l cb Inst.Beq tb Reg.x0 done_l;
          Codebuf.inst cb (load_w sew td ta);
          Codebuf.inst cb (store_w sew td tc);
          Codebuf.inst cb (Inst.Op (Inst.Add, tc, tc, rs2));
          Codebuf.inst cb (addi ta ta sz);
          Codebuf.inst cb (addi tb tb (-1));
          Codebuf.j_l cb loop;
          Codebuf.label cb done_l)
  | _ -> assert false

(* Element-wise arithmetic shared by .vv and .vx forms. [rhs] is either a
   vector register (loaded each iteration into tf) or a scalar register. *)
type rhs = Rvec of Reg.v | Rscalar of Reg.t

let emit_vop cb ~full_strip ~static_sew ~free ?vctx op vd vs2 rhs =
  let scalar_regs = match rhs with Rscalar r -> [ r ] | Rvec _ -> [] in
  let exclude =
    Regmask.union (Regmask.of_list scalar_regs)
      (match vctx with
      | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
      | None -> Regmask.empty)
  in
  match Scavenge.pick_free ~n:6 ~exclude ~free with
  | [ ta; tb; tc; td; te; tf ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          with_sew cb ~static_sew ~tmp:ta (fun sew ->
              let loop = gensym ".Tvop" and done_l = gensym ".Tvopdone" in
              let sz = Inst.sew_bytes sew in
              let vl_reg =
                match vctx with
                | Some (rb, rv) ->
                    Codebuf.inst cb (addi tb rb (Vregs.vreg_off vs2));
                    (match rhs with
                    | Rvec vs1 -> Codebuf.inst cb (addi tc rb (Vregs.vreg_off vs1))
                    | Rscalar _ -> ());
                    Codebuf.inst cb (addi ta rb (Vregs.vreg_off vd));
                    rv
                | None ->
                    Codebuf.la_abs cb ta Vregs.base;
                    Codebuf.inst cb
                      (Inst.Load
                         { width = Inst.D; unsigned = false; rd = td; rs1 = ta; imm = Vregs.vl_off });
                    Codebuf.inst cb (addi tb ta (Vregs.vreg_off vs2));
                    (match rhs with
                    | Rvec vs1 -> Codebuf.inst cb (addi tc ta (Vregs.vreg_off vs1))
                    | Rscalar _ -> ());
                    Codebuf.inst cb (addi ta ta (Vregs.vreg_off vd));
                    td
              in
              (* the element body; a .vx form's scalar operand is read
                 directly from its register instead of a copy *)
              let elem_body ~load_b ~load_rhs ~load_vd ~store =
                Codebuf.inst cb load_b;
                let rhs_reg =
                  match rhs with
                  | Rvec _ ->
                      Codebuf.inst cb load_rhs;
                      tf
                  | Rscalar r -> r
                in
                (match op with
                | Inst.Vadd -> Codebuf.inst cb (Inst.Op (add_op sew, te, te, rhs_reg))
                | Inst.Vsub -> Codebuf.inst cb (Inst.Op (sub_op sew, te, te, rhs_reg))
                | Inst.Vmul -> Codebuf.inst cb (Inst.Op (mul_op sew, te, te, rhs_reg))
                | Inst.Vmacc ->
                    Codebuf.inst cb (Inst.Op (mul_op sew, te, te, rhs_reg));
                    Codebuf.inst cb load_vd;
                    Codebuf.inst cb (Inst.Op (add_op sew, te, te, tf)));
                Codebuf.inst cb store
              in
              (* full strip: unrolled, no pointer bumps *)
              if full_strip then begin
                let generic = gensym ".Tvopgen" in
                Codebuf.inst cb (addi te Reg.x0 (vlmax sew));
                Codebuf.branch_l cb Inst.Bne vl_reg te generic;
                for e = 0 to vlmax sew - 1 do
                  elem_body
                    ~load_b:(load_off sew te tb (e * sz))
                    ~load_rhs:(load_off sew tf tc (e * sz))
                    ~load_vd:(load_off sew tf ta (e * sz))
                    ~store:(store_off sew te ta (e * sz))
                done;
                Codebuf.j_l cb done_l;
                (* generic path for partial strips *)
                Codebuf.label cb generic
              end;
              Codebuf.inst cb (mv td vl_reg);
              Codebuf.label cb loop;
              Codebuf.branch_l cb Inst.Beq td Reg.x0 done_l;
              elem_body ~load_b:(load_w sew te tb) ~load_rhs:(load_w sew tf tc)
                ~load_vd:(load_w sew tf ta) ~store:(store_w sew te ta);
              Codebuf.inst cb (addi tb tb sz);
              (match rhs with
              | Rvec _ -> Codebuf.inst cb (addi tc tc sz)
              | Rscalar _ -> ());
              Codebuf.inst cb (addi ta ta sz);
              Codebuf.inst cb (addi td td (-1));
              Codebuf.j_l cb loop;
              Codebuf.label cb done_l))
  | _ -> assert false

let emit_vmv_v_x cb ~full_strip ~static_sew ~free ?vctx vd rs1 =
  let exclude =
    Regmask.union (Regmask.of_list [ rs1 ])
      (match vctx with
      | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
      | None -> Regmask.empty)
  in
  match Scavenge.pick_free ~n:3 ~exclude ~free with
  | [ ta; tb; tc ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          with_sew cb ~static_sew ~tmp:ta (fun sew ->
              let loop = gensym ".Tvmv" and done_l = gensym ".Tvmvdone" in
              let sz = Inst.sew_bytes sew in
              let vl_reg =
                match vctx with
                | Some (rb, rv) ->
                    Codebuf.inst cb (addi ta rb (Vregs.vreg_off vd));
                    rv
                | None ->
                    Codebuf.la_abs cb ta Vregs.base;
                    Codebuf.inst cb
                      (Inst.Load
                         { width = Inst.D; unsigned = false; rd = tb; rs1 = ta;
                           imm = Vregs.vl_off });
                    Codebuf.inst cb (addi ta ta (Vregs.vreg_off vd));
                    tb
              in
              (* full strip: unrolled splat, no bumps *)
              if full_strip then begin
                let generic = gensym ".Tvmvgen" in
                Codebuf.inst cb (addi tc Reg.x0 (vlmax sew));
                Codebuf.branch_l cb Inst.Bne vl_reg tc generic;
                for e = 0 to vlmax sew - 1 do
                  Codebuf.inst cb (store_off sew rs1 ta (e * sz))
                done;
                Codebuf.j_l cb done_l;
                Codebuf.label cb generic
              end;
              Codebuf.inst cb (mv tb vl_reg);
              Codebuf.inst cb (mv tc rs1);
              Codebuf.label cb loop;
              Codebuf.branch_l cb Inst.Beq tb Reg.x0 done_l;
              Codebuf.inst cb (store_w sew tc ta);
              Codebuf.inst cb (addi ta ta sz);
              Codebuf.inst cb (addi tb tb (-1));
              Codebuf.j_l cb loop;
              Codebuf.label cb done_l))
  | _ -> assert false

let emit_vmv_x_s cb ~static_sew ~free rd vs2 =
  if Reg.equal rd Reg.x0 then ()
  else
    match static_sew with
    | Some sew ->
        Codebuf.la_abs cb rd Vregs.base;
        Codebuf.inst cb (load_off sew rd rd (Vregs.vreg_off vs2))
    | None ->
        (match Scavenge.pick_free ~n:1 ~exclude:(Regmask.singleton rd) ~free with
        | [ ta ], to_spill ->
            Scavenge.with_spills cb to_spill (fun () ->
                with_sew cb ~static_sew:None ~tmp:ta (fun sew ->
                    Codebuf.la_abs cb rd Vregs.base;
                    Codebuf.inst cb (load_off sew rd rd (Vregs.vreg_off vs2))))
        | _ -> assert false)

let emit_vredsum cb ~full_strip ~static_sew ~free ?vctx vd vs2 vs1 =
  let exclude =
    match vctx with
    | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
    | None -> Regmask.empty
  in
  match Scavenge.pick_free ~n:4 ~exclude ~free with
  | [ ta; tb; tc; td ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          with_sew cb ~static_sew ~tmp:ta (fun sew ->
              let loop = gensym ".Tvred" and done_l = gensym ".Tvreddone" in
              let sz = Inst.sew_bytes sew in
              let vl_reg =
                match vctx with
                | Some (rb, rv) ->
                    (* acc = vs1[0] *)
                    Codebuf.inst cb (addi tc rb (Vregs.vreg_off vs1));
                    Codebuf.inst cb (load_w sew tc tc);
                    Codebuf.inst cb (addi ta rb (Vregs.vreg_off vs2));
                    rv
                | None ->
                    Codebuf.la_abs cb ta Vregs.base;
                    Codebuf.inst cb
                      (Inst.Load
                         { width = Inst.D; unsigned = false; rd = tb; rs1 = ta;
                           imm = Vregs.vl_off });
                    Codebuf.inst cb (addi tc ta (Vregs.vreg_off vs1));
                    Codebuf.inst cb (load_w sew tc tc);
                    Codebuf.inst cb (addi ta ta (Vregs.vreg_off vs2));
                    tb
              in
              if full_strip then begin
                let generic = gensym ".Tvredgen" in
                Codebuf.inst cb (addi td Reg.x0 (vlmax sew));
                Codebuf.branch_l cb Inst.Bne vl_reg td generic;
                for e = 0 to vlmax sew - 1 do
                  Codebuf.inst cb (load_off sew td ta (e * sz));
                  Codebuf.inst cb (Inst.Op (add_op sew, tc, tc, td))
                done;
                Codebuf.j_l cb done_l;
                Codebuf.label cb generic
              end;
              Codebuf.inst cb (mv tb vl_reg);
              Codebuf.label cb loop;
              Codebuf.branch_l cb Inst.Beq tb Reg.x0 done_l;
              Codebuf.inst cb (load_w sew td ta);
              Codebuf.inst cb (Inst.Op (add_op sew, tc, tc, td));
              Codebuf.inst cb (addi ta ta sz);
              Codebuf.inst cb (addi tb tb (-1));
              Codebuf.j_l cb loop;
              Codebuf.label cb done_l;
              (* vd[0] = acc *)
              Codebuf.la_abs cb td Vregs.base;
              Codebuf.inst cb (store_off sew tc td (Vregs.vreg_off vd))))
  | _ -> assert false

(* --- batch fast path ------------------------------------------------------ *)

(* Straight-line element code for a CHBP batch under a full-strip guard:
   vl = VLMAX at a known SEW, so every vector operation is [vlmax sew]
   unrolled element operations. Vector state is addressed as immediate
   offsets off [base]. Every vector-register write is stored through to the
   simulated register file, so it is exact wherever the fast path stops; an
   element written earlier in the batch and read later is also kept in a
   forwarding register, when the pool has one free. [holds.(r)] is the
   element register [r] forwards ([vreg * 32 + index]), or -1. *)
type fast = {
  base : Reg.t;
  s1 : Reg.t;
  s2 : Reg.t;
  mutable sew : Inst.sew;
  mutable pool : Regmask.t;  (* forwarding registers holding nothing *)
  holds : int array;
}

let fast_begin cb ~base ~scratch:(s1, s2) ~pool =
  Codebuf.la_abs cb base Vregs.base;
  { base; s1; s2; sew = Inst.E64; pool; holds = Array.make 32 (-1) }

let fast_free f = Regmask.to_list f.pool

let vbit v = 1 lsl Reg.v_to_int v

let vread_mask = function
  | Inst.Vse (_, vs3, _) | Inst.Vsse (_, vs3, _, _) -> vbit vs3
  | Inst.Vop_vv (Inst.Vmacc, vd, vs2, vs1) -> vbit vd lor vbit vs2 lor vbit vs1
  | Inst.Vop_vv (_, _, vs2, vs1) | Inst.Vredsum (_, vs2, vs1) -> vbit vs2 lor vbit vs1
  | Inst.Vop_vx (Inst.Vmacc, vd, vs2, _) -> vbit vd lor vbit vs2
  | Inst.Vop_vx (_, _, vs2, _) | Inst.Vmv_x_s (_, vs2) -> vbit vs2
  | _ -> 0

let fast_supported ~sew = function
  | Inst.Vsetvli (rd, rs1, _) -> not (Reg.equal rd Reg.x0 && Reg.equal rs1 Reg.x0)
  | Inst.Vle (s, _, _) | Inst.Vse (s, _, _) | Inst.Vlse (s, _, _, _) | Inst.Vsse (s, _, _, _) ->
      s = sew
  | _ -> true

let key v e = (Reg.v_to_int v lsl 5) lor e

let holder f k =
  let rec go r = if r = 32 then -1 else if f.holds.(r) = k then r else go (r + 1) in
  go 0

let release f r =
  f.holds.(r) <- -1;
  f.pool <- f.pool lor (1 lsl r)

let drop f k = match holder f k with -1 -> () | r -> release f r

(* A new SEW changes the element layout: forget every forwarded element *)
let fast_segment f sew =
  f.sew <- sew;
  Array.iteri (fun r k -> if k >= 0 then release f r) f.holds

(* The guard of a segment with no vsetvli of its own: unless the state
   holds [sew] with vl = VLMAX, branch to [fail]. Both checks fall through
   on success, so a superblock translation follows the fast path. *)
let fast_check cb f ~fail sew =
  Codebuf.inst cb
    (Inst.Load { width = Inst.D; unsigned = false; rd = f.s1; rs1 = f.base; imm = Vregs.vsew_off });
  (match Encode.sew_code sew with
  | 0 -> Codebuf.branch_l cb Inst.Bne f.s1 Reg.x0 fail
  | c ->
      Codebuf.inst cb (addi f.s2 Reg.x0 c);
      Codebuf.branch_l cb Inst.Bne f.s1 f.s2 fail);
  Codebuf.inst cb
    (Inst.Load { width = Inst.D; unsigned = false; rd = f.s1; rs1 = f.base; imm = Vregs.vl_off });
  Codebuf.inst cb (addi f.s2 Reg.x0 (vlmax sew));
  Codebuf.branch_l cb Inst.Bne f.s1 f.s2 fail;
  fast_segment f sew

(* A vsetvli opens a segment: its guard (the AVL reaches VLMAX, else
   branch to [fail], whose slow path runs the vsetvli itself), then the
   state update with vl known to be VLMAX. *)
let fast_vsetvli cb f ~fail rd rs1 sew =
  Codebuf.inst cb (addi f.s1 Reg.x0 (vlmax sew));
  if not (Reg.equal rs1 Reg.x0) then Codebuf.branch_l cb Inst.Bltu rs1 f.s1 fail;
  (match Encode.sew_code sew with
  | 0 ->
      Codebuf.inst cb
        (Inst.Store { width = Inst.D; rs2 = Reg.x0; rs1 = f.base; imm = Vregs.vsew_off })
  | c ->
      Codebuf.inst cb (addi f.s2 Reg.x0 c);
      Codebuf.inst cb
        (Inst.Store { width = Inst.D; rs2 = f.s2; rs1 = f.base; imm = Vregs.vsew_off }));
  Codebuf.inst cb (Inst.Store { width = Inst.D; rs2 = f.s1; rs1 = f.base; imm = Vregs.vl_off });
  if not (Reg.equal rd Reg.x0) then Codebuf.inst cb (mv rd f.s1);
  fast_segment f sew

(* One vector instruction of a full-strip segment. [live_after] masks the
   vector registers the rest of the batch reads. *)
let fast_inst cb f ~live_after inst =
  let sew = f.sew in
  let sz = Inst.sew_bytes sew in
  let live v = live_after land vbit v <> 0 in
  let voff v e = Vregs.vreg_off v + (e * sz) in
  (* element [e] of [v] in a register: its forwarding register, or loaded
     into [scratch] *)
  let read v e scratch =
    match holder f (key v e) with
    | -1 ->
        Codebuf.inst cb (load_off sew scratch f.base (voff v e));
        scratch
    | r -> Reg.of_int r
  in
  (* a source element the rest of the batch never reads frees its register *)
  let last_use v e = if not (live v) then drop f (key v e) in
  (* the register a new value of element [e] of [vd] is computed into *)
  let dest vd e scratch =
    let k = key vd e in
    match holder f k with
    | -1 ->
        if live vd && f.pool <> 0 then begin
          let rec lowest r = if f.pool land (1 lsl r) <> 0 then r else lowest (r + 1) in
          let r = lowest 0 in
          f.pool <- f.pool land lnot (1 lsl r);
          f.holds.(r) <- k;
          Reg.of_int r
        end
        else scratch
    | r ->
        if live vd then Reg.of_int r
        else begin
          release f r;
          scratch
        end
  in
  let store v e r = Codebuf.inst cb (store_off sew r f.base (voff v e)) in
  let n = vlmax sew in
  match inst with
  | Inst.Vle (_, vd, rs1) ->
      for e = 0 to n - 1 do
        let d = dest vd e f.s1 in
        Codebuf.inst cb (load_off sew d rs1 (e * sz));
        store vd e d
      done
  | Inst.Vlse (_, vd, rs1, rs2) ->
      Codebuf.inst cb (mv f.s2 rs1);
      for e = 0 to n - 1 do
        let d = dest vd e f.s1 in
        Codebuf.inst cb (load_off sew d f.s2 0);
        store vd e d;
        if e < n - 1 then Codebuf.inst cb (Inst.Op (Inst.Add, f.s2, f.s2, rs2))
      done
  | Inst.Vse (_, vs3, rs1) ->
      for e = 0 to n - 1 do
        Codebuf.inst cb (store_off sew (read vs3 e f.s1) rs1 (e * sz));
        last_use vs3 e
      done
  | Inst.Vsse (_, vs3, rs1, rs2) ->
      Codebuf.inst cb (mv f.s2 rs1);
      for e = 0 to n - 1 do
        Codebuf.inst cb (store_off sew (read vs3 e f.s1) f.s2 0);
        last_use vs3 e;
        if e < n - 1 then Codebuf.inst cb (Inst.Op (Inst.Add, f.s2, f.s2, rs2))
      done
  | Inst.Vop_vv (op, vd, vs2, _) | Inst.Vop_vx (op, vd, vs2, _) ->
      let srcs_dead e =
        if not (Reg.v_equal vs2 vd) then last_use vs2 e;
        match inst with
        | Inst.Vop_vv (_, _, _, vs1) when not (Reg.v_equal vs1 vd) -> last_use vs1 e
        | _ -> ()
      in
      for e = 0 to n - 1 do
        let a = read vs2 e f.s1 in
        let b =
          match inst with
          | Inst.Vop_vv (_, _, _, vs1) -> read vs1 e f.s2
          | Inst.Vop_vx (_, _, _, rs1) -> rs1
          | _ -> assert false
        in
        let d =
          match op with
          | Inst.Vmacc ->
              Codebuf.inst cb (Inst.Op (mul_op sew, f.s1, a, b));
              srcs_dead e;
              let c = read vd e f.s2 in
              let d = dest vd e f.s2 in
              Codebuf.inst cb (Inst.Op (add_op sew, d, c, f.s1));
              d
          | Inst.Vadd | Inst.Vsub | Inst.Vmul ->
              srcs_dead e;
              let d = dest vd e f.s1 in
              let alu =
                match op with
                | Inst.Vadd -> add_op sew
                | Inst.Vsub -> sub_op sew
                | _ -> mul_op sew
              in
              Codebuf.inst cb (Inst.Op (alu, d, a, b));
              d
        in
        store vd e d
      done
  | Inst.Vmv_v_x (vd, rs1) ->
      for e = 0 to n - 1 do
        drop f (key vd e);
        store vd e rs1
      done
  | Inst.Vmv_x_s (rd, vs2) ->
      if not (Reg.equal rd Reg.x0) then
        Codebuf.inst cb (load_off sew rd f.base (voff vs2 0));
      last_use vs2 0
  | Inst.Vredsum (vd, vs2, vs1) ->
      (* acc = vs1[0] + vs2[0] + ... in s1, without touching a forwarded
         vs1[0] *)
      let a = read vs1 0 f.s1 in
      for e = 0 to n - 1 do
        let b = read vs2 e f.s2 in
        Codebuf.inst cb (Inst.Op (add_op sew, f.s1, (if e = 0 then a else f.s1), b))
      done;
      for e = 0 to n - 1 do
        last_use vs2 e
      done;
      last_use vs1 0;
      drop f (key vd 0);
      store vd 0 f.s1
  | _ -> invalid_arg (Printf.sprintf "Translate.fast_inst: %s" (Inst.to_string inst))

(* --- bit-manipulation templates (paper's sh1add example) ---------------- *)

let emit_bitmanip cb ~free op rd rs1 rs2 =
  let exclude = Regmask.of_list [ rd; rs1; rs2 ] in
  let shadd n =
    match Scavenge.pick_free ~n:1 ~exclude ~free with
    | [ t ], to_spill ->
        Scavenge.with_spills cb to_spill (fun () ->
            Codebuf.inst cb (Inst.Opi (Inst.Slli, t, rs1, n));
            Codebuf.inst cb (Inst.Op (Inst.Add, rd, t, rs2)))
    | _ -> assert false
  in
  let with_not f =
    match Scavenge.pick_free ~n:1 ~exclude ~free with
    | [ t ], to_spill ->
        Scavenge.with_spills cb to_spill (fun () ->
            Codebuf.inst cb (Inst.Opi (Inst.Xori, t, rs2, -1));
            f t)
    | _ -> assert false
  in
  let minmax cond =
    (* rd = if cond(rs1, rs2) then rs1 else rs2, alias-safe via a temp *)
    match Scavenge.pick_free ~n:1 ~exclude ~free with
    | [ t ], to_spill ->
        Scavenge.with_spills cb to_spill (fun () ->
            let take1 = gensym ".Tmm" and done_l = gensym ".Tmmdone" in
            Codebuf.branch_l cb cond rs1 rs2 take1;
            Codebuf.inst cb (mv t rs2);
            Codebuf.j_l cb done_l;
            Codebuf.label cb take1;
            Codebuf.inst cb (mv t rs1);
            Codebuf.label cb done_l;
            Codebuf.inst cb (mv rd t))
    | _ -> assert false
  in
  match op with
  | Inst.Sh1add -> shadd 1
  | Inst.Sh2add -> shadd 2
  | Inst.Sh3add -> shadd 3
  | Inst.Andn -> with_not (fun t -> Codebuf.inst cb (Inst.Op (Inst.And, rd, rs1, t)))
  | Inst.Orn -> with_not (fun t -> Codebuf.inst cb (Inst.Op (Inst.Or, rd, rs1, t)))
  | Inst.Xnor ->
      Codebuf.inst cb (Inst.Op (Inst.Xor, rd, rs1, rs2));
      Codebuf.inst cb (Inst.Opi (Inst.Xori, rd, rd, -1))
  | Inst.Min -> minmax Inst.Blt
  | Inst.Max -> minmax Inst.Bge
  | Inst.Minu -> minmax Inst.Bltu
  | Inst.Maxu -> minmax Inst.Bgeu
  | Inst.Add | Inst.Sub | Inst.Sll | Inst.Slt | Inst.Sltu | Inst.Xor | Inst.Srl
  | Inst.Sra | Inst.Or | Inst.And | Inst.Mul | Inst.Mulh | Inst.Div | Inst.Divu
  | Inst.Rem | Inst.Remu | Inst.Addw | Inst.Subw | Inst.Sllw | Inst.Srlw
  | Inst.Sraw | Inst.Mulw | Inst.Divw | Inst.Remw ->
      invalid_arg "Translate.emit_bitmanip: not a bit-manipulation op"

(* --- packed-SIMD templates (the draft-P / vendor-DSP case study) -------- *)

(* Lane-wise 16-bit addition. The result accumulates in a temp so rd may
   alias rs1 or rs2. *)
let emit_p_add16 cb ~free rd rs1 rs2 =
  let exclude = Regmask.of_list [ rd; rs1; rs2 ] in
  match Scavenge.pick_free ~n:3 ~exclude ~free with
  | [ ta; tc; acc ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          Codebuf.inst cb (addi acc Reg.x0 0);
          for i = 3 downto 0 do
            let sh = 16 * i in
            Codebuf.inst cb (Inst.Opi (Inst.Srli, ta, rs1, sh));
            Codebuf.inst cb (Inst.Opi (Inst.Srli, tc, rs2, sh));
            Codebuf.inst cb (Inst.Op (Inst.Add, ta, ta, tc));
            Codebuf.inst cb (Inst.Opi (Inst.Slli, ta, ta, 48));
            Codebuf.inst cb (Inst.Opi (Inst.Srli, ta, ta, 48));
            Codebuf.inst cb (Inst.Opi (Inst.Slli, acc, acc, 16));
            Codebuf.inst cb (Inst.Op (Inst.Or, acc, acc, ta))
          done;
          Codebuf.inst cb (mv rd acc))
  | _ -> assert false

(* Signed 8-bit quad multiply-accumulate: rd <- rd + dot(rs1, rs2) over
   the eight byte lanes. rd is read only after both sources, so aliasing
   is safe. *)
let emit_p_smaqa cb ~free rd rs1 rs2 =
  let exclude = Regmask.of_list [ rd; rs1; rs2 ] in
  match Scavenge.pick_free ~n:3 ~exclude ~free with
  | [ ta; tc; acc ], to_spill ->
      Scavenge.with_spills cb to_spill (fun () ->
          Codebuf.inst cb (addi acc Reg.x0 0);
          for i = 0 to 7 do
            let sh = 56 - (8 * i) in
            Codebuf.inst cb (Inst.Opi (Inst.Slli, ta, rs1, sh));
            Codebuf.inst cb (Inst.Opi (Inst.Srai, ta, ta, 56));
            Codebuf.inst cb (Inst.Opi (Inst.Slli, tc, rs2, sh));
            Codebuf.inst cb (Inst.Opi (Inst.Srai, tc, tc, 56));
            Codebuf.inst cb (Inst.Op (Inst.Mul, ta, ta, tc));
            Codebuf.inst cb (Inst.Op (Inst.Add, acc, acc, ta))
          done;
          Codebuf.inst cb (Inst.Op (Inst.Add, rd, rd, acc)))
  | _ -> assert false

let downgrade cb ~static_sew ?(free = []) ?vctx ?(full_strip = true) inst =
  match inst with
  | Inst.Vsetvli (rd, rs1, sew) -> emit_vsetvli cb ~free ?vctx rd rs1 sew
  | Inst.Vle (sew, vd, rs1) -> emit_vle cb ~full_strip ~free ?vctx sew vd rs1
  | Inst.Vlse (sew, vd, rs1, rs2) -> emit_vlse cb ~free ?vctx sew vd rs1 rs2
  | Inst.Vsse (sew, vs3, rs1, rs2) -> emit_vsse cb ~free ?vctx sew vs3 rs1 rs2
  | Inst.Vse (sew, vs3, rs1) -> emit_vse cb ~full_strip ~free ?vctx sew vs3 rs1
  | Inst.Vop_vv (op, vd, vs2, vs1) ->
      emit_vop cb ~full_strip ~static_sew ~free ?vctx op vd vs2 (Rvec vs1)
  | Inst.Vop_vx (op, vd, vs2, rs1) ->
      emit_vop cb ~full_strip ~static_sew ~free ?vctx op vd vs2 (Rscalar rs1)
  | Inst.Vmv_v_x (vd, rs1) -> emit_vmv_v_x cb ~full_strip ~static_sew ~free ?vctx vd rs1
  | Inst.Vmv_x_s (rd, vs2) -> emit_vmv_x_s cb ~static_sew ~free rd vs2
  | Inst.Vredsum (vd, vs2, vs1) -> emit_vredsum cb ~full_strip ~static_sew ~free ?vctx vd vs2 vs1
  | Inst.Op (op, rd, rs1, rs2) when Inst.is_bitmanip inst -> emit_bitmanip cb ~free op rd rs1 rs2
  | Inst.P_add16 (rd, rs1, rs2) -> emit_p_add16 cb ~free rd rs1 rs2
  | Inst.P_smaqa (rd, rs1, rs2) -> emit_p_smaqa cb ~free rd rs1 rs2
  | Inst.Lui _ | Inst.Auipc _ | Inst.Jal _ | Inst.Jalr _ | Inst.Branch _
  | Inst.Load _ | Inst.Store _ | Inst.Op _ | Inst.Opi _ | Inst.Ecall
  | Inst.Ebreak | Inst.C_nop | Inst.C_ebreak | Inst.C_addi _ | Inst.C_li _
  | Inst.C_mv _ | Inst.C_add _ | Inst.C_j _ | Inst.C_jr _ | Inst.C_jalr _
  | Inst.C_beqz _ | Inst.C_bnez _ | Inst.C_ld _ | Inst.C_sd _ | Inst.C_lw _
  | Inst.C_sw _ | Inst.C_lui _ | Inst.C_addiw _ | Inst.C_andi _ | Inst.C_alu _
  | Inst.C_slli _ | Inst.Xcheck_jalr _ ->
      invalid_arg
        (Printf.sprintf "Translate.downgrade: %s is not translatable"
           (Inst.to_string inst))
