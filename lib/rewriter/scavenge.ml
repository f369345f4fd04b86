let pool =
  Reg.temporaries
  @ [ Reg.a7; Reg.a6; Reg.a5; Reg.a4; Reg.a3; Reg.a2; Reg.a1; Reg.a0; Reg.s11;
      Reg.s10; Reg.s9; Reg.s8; Reg.s7; Reg.s6; Reg.s5; Reg.s4; Reg.s3; Reg.s2;
      Reg.s1; Reg.s0; Reg.ra ]

let pick_free ~n ~exclude ~free =
  let free = Regmask.diff (Regmask.of_list free) exclude in
  (* stable preference order: the pool's free registers first, then the
     rest of the pool; only the result lists are allocated *)
  let rec take ~want_free k = function
    | [] -> ([], [], k)
    | r :: rest ->
        if k = 0 then ([], [], 0)
        else if Regmask.mem r exclude || Regmask.mem r free <> want_free then
          take ~want_free k rest
        else
          let chosen, spilled, k = take ~want_free (k - 1) rest in
          (r :: chosen, (if want_free then spilled else r :: spilled), k)
  in
  let from_free, _, k = take ~want_free:true n pool in
  let from_rest, to_spill, k = take ~want_free:false k pool in
  if k > 0 then
    invalid_arg (Printf.sprintf "Scavenge.pick_free: cannot find %d registers" n);
  (from_free @ from_rest, to_spill)

let pick ~n ~exclude =
  let free = List.filter (fun r -> not (Regmask.mem r exclude)) pool in
  if List.length free < n then
    invalid_arg (Printf.sprintf "Scavenge.pick: cannot find %d registers" n);
  List.filteri (fun i _ -> i < n) free

let save cb regs =
  let n = List.length regs in
  if n > 0 then begin
    Codebuf.inst cb (Inst.Opi (Inst.Addi, Reg.sp, Reg.sp, -8 * n));
    List.iteri
      (fun i r ->
        Codebuf.inst cb (Inst.Store { width = Inst.D; rs2 = r; rs1 = Reg.sp; imm = 8 * i }))
      regs
  end

(* first-in, last-out: restore in reverse order, from the slot each
   register was saved to *)
let restore cb regs =
  let n = List.length regs in
  if n > 0 then begin
    List.iteri
      (fun i r ->
        let slot = n - 1 - i in
        Codebuf.inst cb
          (Inst.Load
             { width = Inst.D; unsigned = false; rd = r; rs1 = Reg.sp; imm = 8 * slot }))
      (List.rev regs);
    Codebuf.inst cb (Inst.Opi (Inst.Addi, Reg.sp, Reg.sp, 8 * n))
  end

let with_spills cb regs body =
  save cb regs;
  body ();
  restore cb regs
