(* Property-based tests across the system:

   - SMILE congruence solving (any pc/min -> admissible, compressed-safe)
   - Codebuf label linking (random branch webs decode back to their targets)
   - Memory round-trips at random widths and page-crossing addresses
   - scheduler work conservation
   - liveness soundness: clobbering a register reported dead at a reachable
     program point never changes the program's result
   - differential fuzzing: random synthetic binaries produce identical
     results natively and after CHBP downgrade/strawman/Safer rewriting *)

let base_isa = Ext.rv64gc
let ext_isa = Ext.rv64gcv

(* --- SMILE ---------------------------------------------------------------- *)

let prop_smile_next_target =
  QCheck.Test.make ~name:"smile: next_target admissible and minimal-ish" ~count:500
    QCheck.(
      make
        Gen.(
          let* pc = int_range 0x10000 0x400000 in
          let* min = int_range 0x1000_0000 0x1800_0000 in
          let* compressed = bool in
          return (pc land lnot 1, min, compressed)))
    (fun (pc, min, compressed) ->
      let t = Smile.next_target ~pc ~min ~compressed in
      t >= min
      &&
      match Smile.solve_imm20 ~pc ~target:t with
      | None -> false
      | Some imm -> (not compressed) || Smile.imm20_compressed_safe imm)

let prop_smile_write_decodes =
  QCheck.Test.make ~name:"smile: written trampoline decodes as auipc+jalr" ~count:300
    QCheck.(
      make
        Gen.(
          let* pc = int_range 0x10000 0x100000 in
          let* compressed = bool in
          return (pc land lnot 3, compressed)))
    (fun (pc, compressed) ->
      let target = Smile.next_target ~pc ~min:0x1000_0000 ~compressed in
      let buf = Bytes.make 8 '\000' in
      Smile.write buf ~off:0 ~pc ~target ~compressed;
      let w1 = Bytes.get_uint16_le buf 0 lor (Bytes.get_uint16_le buf 2 lsl 16) in
      let w2 = Bytes.get_uint16_le buf 4 lor (Bytes.get_uint16_le buf 6 lsl 16) in
      match (Decode.decode_word w1, Decode.decode_word w2) with
      | Decode.Ok (Inst.Auipc (rd, imm20), 4), Decode.Ok (Inst.Jalr (rd2, rs1, imm), 4)
        ->
          Reg.equal rd Reg.gp && Reg.equal rd2 Reg.gp && Reg.equal rs1 Reg.gp
          && imm = Smile.jalr_imm
          && pc + (imm20 lsl 12) + imm = target
      | _ -> false)

(* --- Codebuf --------------------------------------------------------------- *)

let prop_codebuf_branch_web =
  (* N labeled slots with random forward/backward jumps between them; after
     linking, every jump decodes to the address of its target label. *)
  QCheck.Test.make ~name:"codebuf: random branch webs link correctly" ~count:200
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 4 + Random.State.int rng 8 in
      let cb = Codebuf.create () in
      let targets = Array.init n (fun i -> Printf.sprintf "L%d" i) in
      Array.iter
        (fun l ->
          Codebuf.label cb l;
          (* some padding insts *)
          for _ = 0 to Random.State.int rng 3 do
            Codebuf.inst cb (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, 1))
          done;
          Codebuf.jal_l cb Reg.x0 targets.(Random.State.int rng n))
        targets;
      let base = 0x40000 in
      let bytes = Codebuf.link cb ~base ~resolve:(fun _ -> None) in
      (* decode: every jal must land on a label offset *)
      let label_addrs =
        Array.to_list (Array.map (fun l -> base + Codebuf.label_offset cb l) targets)
      in
      let ok = ref true in
      let off = ref 0 in
      while !off + 4 <= Bytes.length bytes do
        (match
           Decode.decode
             ~lo:(Bytes.get_uint16_le bytes !off)
             ~hi:(Bytes.get_uint16_le bytes (!off + 2))
         with
        | Decode.Ok (Inst.Jal (_, d), _) ->
            if not (List.mem (base + !off + d) label_addrs) then ok := false
        | _ -> ());
        off := !off + 4
      done;
      !ok)

(* --- Memory ---------------------------------------------------------------- *)

let prop_memory_roundtrip =
  QCheck.Test.make ~name:"memory: load (store v) = v at any width/offset" ~count:500
    QCheck.(
      make
        Gen.(
          let* off = int_range 0 8190 in
          let* v = map Int64.of_int (int_range 0 max_int) in
          let* w = int_range 0 3 in
          return (off, v, w)))
    (fun (off, v, w) ->
      let mem = Memory.create () in
      Memory.map mem ~addr:0x1000 ~len:(2 * 4096) Memory.perm_rw;
      let addr = 0x1000 + off in
      match w with
      | 0 ->
          Memory.store_u8 mem addr (Int64.to_int v land 0xFF);
          Memory.load_u8 mem addr = Int64.to_int v land 0xFF
      | 1 ->
          Memory.store_u16 mem addr (Int64.to_int v land 0xFFFF);
          Memory.load_u16 mem addr = Int64.to_int v land 0xFFFF
      | 2 ->
          if off > 8188 then true
          else begin
            Memory.store_u32 mem addr (Int64.to_int v land 0xFFFFFFFF);
            Memory.load_u32 mem addr = Int64.to_int v land 0xFFFFFFFF
          end
      | _ ->
          if off > 8184 then true
          else begin
            Memory.store_u64 mem addr v;
            Int64.equal (Memory.load_u64 mem addr) v
          end)

(* Page-wise [poke_bytes] must leave memory exactly as a byte-at-a-time
   [poke_u8] loop does: same bytes around and inside the write, and the
   same on-demand pages (unmapped ones appear with no access). The write
   starts anywhere in five pages of which only the second is mapped, and
   runs for up to three pages. *)
let prop_poke_bytes_pagewise =
  QCheck.Test.make ~name:"memory: poke_bytes = per-byte poke_u8 reference" ~count:300
    QCheck.(
      make
        ~print:(fun (off, s) -> Printf.sprintf "offset %d, %d bytes" off (String.length s))
        Gen.(pair (int_range 0 (5 * 4096)) (string_size ~gen:char (int_range 0 (3 * 4096)))))
    (fun (off, s) ->
      let base = 0x10000 and span = 8 * 4096 in
      let fresh () =
        let mem = Memory.create () in
        Memory.map mem ~addr:(base + 4096) ~len:4096 Memory.perm_rw;
        for i = 0 to 4095 do
          Memory.poke_u8 mem (base + 4096 + i) (i * 7)
        done;
        mem
      in
      let blit = fresh () and bytewise = fresh () in
      let b = Bytes.of_string s in
      Memory.poke_bytes blit (base + off) b;
      Bytes.iteri (fun i c -> Memory.poke_u8 bytewise (base + off + i) (Char.code c)) b;
      let perms mem = List.init (span / 4096) (fun k -> Memory.perm_at mem (base + (k * 4096))) in
      Memory.mapped_ranges blit = Memory.mapped_ranges bytewise
      && perms blit = perms bytewise
      && Bytes.equal (Memory.peek_bytes blit base span) (Memory.peek_bytes bytewise base span))

(* --- packed SIMD semantics vs reference model ------------------------------ *)

let ref_add16 a b =
  let lane i =
    let sh = 16 * i in
    let la = Int64.logand (Int64.shift_right_logical a sh) 0xFFFFL in
    let lb = Int64.logand (Int64.shift_right_logical b sh) 0xFFFFL in
    Int64.shift_left (Int64.logand (Int64.add la lb) 0xFFFFL) sh
  in
  List.fold_left (fun acc i -> Int64.logor acc (lane i)) 0L [ 0; 1; 2; 3 ]

let ref_smaqa acc a b =
  let sbyte v i = Int64.shift_right (Int64.shift_left v (56 - (8 * i))) 56 in
  List.fold_left
    (fun s i -> Int64.add s (Int64.mul (sbyte a i) (sbyte b i)))
    acc
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let exec_one inst ~setup =
  let mem = Memory.create () in
  Memory.map mem ~addr:0x10000 ~len:4096 Memory.perm_rx;
  let buf = Bytes.create 4 in
  ignore (Encode.write buf 0 inst);
  Memory.poke_bytes mem 0x10000 buf;
  let m = Machine.create ~mem ~isa:Ext.all () in
  Machine.set_pc m 0x10000;
  setup m;
  match Machine.run ~fuel:1 m with
  | Machine.Fuel_exhausted -> m
  | _ -> QCheck.Test.fail_report "single instruction did not just retire"

let gen_i64 =
  QCheck.Gen.(
    let* hi = int_range 0 0xFFFFFFFF and* lo = int_range 0 0xFFFFFFFF in
    return Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))

let prop_p_semantics =
  QCheck.Test.make ~name:"packed-simd: machine matches the reference model"
    ~count:500
    QCheck.(
      make
        Gen.(
          let* a = gen_i64 and* b = gen_i64 and* acc = gen_i64 in
          let* rd = int_range 5 15 and* rs1 = int_range 5 15 and* rs2 = int_range 5 15 in
          let* which = bool in
          return (a, b, acc, rd, rs1, rs2, which)))
    (fun (a, b, acc, rd, rs1, rs2, which) ->
      let rd = Reg.of_int rd and rs1 = Reg.of_int rs1 and rs2 = Reg.of_int rs2 in
      let setup m =
        Machine.set_reg m rd acc;
        Machine.set_reg m rs1 a;
        Machine.set_reg m rs2 b
      in
      (* register aliasing: the reference reads the post-setup values
         (setup order rd, rs1, rs2 — later writes win) *)
      let va = if Reg.equal rs1 rs2 then b else a in
      let vb = b in
      let vacc =
        if Reg.equal rd rs2 then b else if Reg.equal rd rs1 then va else acc
      in
      if which then
        let m = exec_one (Inst.P_add16 (rd, rs1, rs2)) ~setup in
        Int64.equal (Machine.get_reg m rd) (ref_add16 va vb)
      else
        let m = exec_one (Inst.P_smaqa (rd, rs1, rs2)) ~setup in
        Int64.equal (Machine.get_reg m rd) (ref_smaqa vacc va vb))

(* --- rewriter structural invariants ------------------------------------------ *)

let small_profile seed =
  { Specgen.sp_name = Printf.sprintf "live%d" seed;
    sp_code_kb = 10;
    sp_ext_pct = 0.015;
    sp_ind_weight = 3;
    sp_vec_heat = 2;
    sp_pressure = 0.3;
    sp_hidden = 0.0;
    sp_compressed = true;
    sp_rounds = 24;
    sp_plain = 5;
    sp_victim_period = 8;
    sp_seed = seed }


(* Every redirect in the fault-handling and trap tables must land inside
   executable bytes of the rewritten image — a dangling redirect would send
   a recovered execution into unmapped or writable memory. *)
let prop_redirects_land_in_executable_code =
  QCheck.Test.make ~name:"rewriter: all table redirects land in executable code"
    ~count:15
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let bin = Specgen.build (small_profile seed) in
      let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
      let out = Chbp.result ctx in
      let executable addr =
        List.exists
          (fun (s : Binfile.section) ->
            Binfile.in_section s addr && s.Binfile.sec_perm.Memory.x)
          out.Binfile.sections
      in
      let ok = ref true in
      Fault_table.iter (Chbp.fault_table ctx) (fun _ r ->
          if not (executable r) then ok := false);
      Fault_table.iter (Chbp.trap_table ctx) (fun _ r ->
          if not (executable r) then ok := false);
      !ok)

(* --- upgrade equivalence ----------------------------------------------------- *)

(* Random instances of the five recognized loop idioms, random lengths and
   strides: the upgraded (vectorized) binary must exit exactly like the
   scalar original. *)
let prop_upgrade_equivalence =
  QCheck.Test.make ~name:"upgrade: vectorized loops preserve scalar semantics"
    ~count:40
    QCheck.(
      make
        Gen.(
          let* kind = int_range 0 4 in
          let* n = int_range 1 41 in
          let* stride_mul = int_range 1 3 in
          let* seed = int_range 0 10_000 in
          return (kind, n, stride_mul, seed)))
    (fun (kind, n, stride_mul, seed) ->
      let st = 8 * stride_mul in
      let a = Asm.create ~name:"ufuzz" () in
      Asm.func a "_start";
      Asm.la a Reg.a0 "src";
      Asm.la a Reg.a1 "dst";
      Asm.li a Reg.a2 n;
      (match kind with
      | 0 ->
          (* element-wise add, unit stride *)
          Asm.label a "L";
          Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t1; rs1 = Reg.a0; imm = 0 });
          Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t2; rs1 = Reg.a1; imm = 0 });
          Asm.inst a (Inst.Op (Inst.Add, Reg.t3, Reg.t1, Reg.t2));
          Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t3; rs1 = Reg.a1; imm = 0 });
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 8));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, 8));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a2, Reg.a2, -1));
          Asm.branch_to a Inst.Bne Reg.a2 Reg.x0 "L"
      | 1 ->
          (* strided copy src -> dst *)
          Asm.label a "L";
          Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t1; rs1 = Reg.a0; imm = 0 });
          Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t1; rs1 = Reg.a1; imm = 0 });
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, st));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, 8));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a2, Reg.a2, -1));
          Asm.branch_to a Inst.Bne Reg.a2 Reg.x0 "L"
      | 2 ->
          (* strided fill *)
          Asm.li a Reg.t2 (seed land 0xFF);
          Asm.label a "L";
          Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t2; rs1 = Reg.a1; imm = 0 });
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, st));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a2, Reg.a2, -1));
          Asm.branch_to a Inst.Bne Reg.a2 Reg.x0 "L"
      | 3 ->
          (* strided reduction *)
          Asm.li a Reg.s2 0;
          Asm.label a "L";
          Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t1; rs1 = Reg.a0; imm = 0 });
          Asm.inst a (Inst.Op (Inst.Add, Reg.s2, Reg.s2, Reg.t1));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, st));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a2, Reg.a2, -1));
          Asm.branch_to a Inst.Bne Reg.a2 Reg.x0 "L";
          Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.s2; rs1 = Reg.a1; imm = 0 })
      | _ ->
          (* axpy: dst += k * src *)
          Asm.li a Reg.s3 (2 + (seed land 7));
          Asm.label a "L";
          Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t1; rs1 = Reg.a0; imm = 0 });
          Asm.inst a (Inst.Op (Inst.Mul, Reg.t2, Reg.t1, Reg.s3));
          Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.a1; imm = 0 });
          Asm.inst a (Inst.Op (Inst.Add, Reg.t3, Reg.t3, Reg.t2));
          Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t3; rs1 = Reg.a1; imm = 0 });
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 8));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, 8));
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.a2, Reg.a2, -1));
          Asm.branch_to a Inst.Bne Reg.a2 Reg.x0 "L");
      (* checksum dst *)
      Asm.la a Reg.a0 "dst";
      Asm.li a Reg.a1 (n * stride_mul);
      Asm.li a Reg.a3 0;
      Asm.label a "C";
      Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t0; rs1 = Reg.a0; imm = 0 });
      Asm.inst a (Inst.Op (Inst.Add, Reg.a3, Reg.a3, Reg.t0));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 8));
      Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
      Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "C";
      Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.a3, 255));
      Asm.li a Reg.a7 93;
      Asm.inst a Inst.Ecall;
      Asm.dlabel a "src";
      for i = 0 to (n * stride_mul) + 2 do
        Asm.dword64 a (Int64.of_int (((seed + i) * 37) land 0xFFFF))
      done;
      Asm.dlabel a "dst";
      for i = 0 to (n * stride_mul) + 2 do
        Asm.dword64 a (Int64.of_int (((seed + i) * 11) land 0xFFFF))
      done;
      let bin = Asm.assemble a in
      let native =
        let mem = Loader.load bin in
        let m = Machine.create ~mem ~isa:base_isa () in
        Loader.init_machine m bin;
        match Machine.run ~fuel:1_000_000 m with
        | Machine.Exited c -> c
        | _ -> QCheck.Test.fail_report "scalar run failed"
      in
      let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Upgrade) bin in
      let rt = Chimera_rt.create ctx in
      let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:ext_isa () in
      match Chimera_rt.run rt ~fuel:1_000_000 m with
      | Machine.Exited c -> c = native
      | Machine.Faulted f ->
          QCheck.Test.fail_reportf "upgraded run faulted: %s" (Fault.to_string f)
      | Machine.Fuel_exhausted -> QCheck.Test.fail_report "upgraded run hung")

(* --- scheduler -------------------------------------------------------------- *)

let prop_sched_work_conservation =
  QCheck.Test.make ~name:"sched: busy time = task cycles + migration costs" ~count:200
    QCheck.(
      make
        Gen.(
          let* seed = int_bound 1_000_000 in
          let* nb = int_range 1 4 in
          let* ne = int_range 1 4 in
          let* n = int_range 1 40 in
          return (seed, nb, ne, n)))
    (fun (seed, nb, ne, n) ->
      let rng = Random.State.make [| seed |] in
      let migrate_cost = 17 in
      let costs = Array.init n (fun _ -> 10 + Random.State.int rng 500) in
      let kinds = Array.init n (fun _ -> Random.State.int rng 3) in
      let tasks =
        List.init n (fun i ->
            match kinds.(i) with
            | 0 ->
                { Sched.t_id = i; t_prefer_ext = false;
                  t_run = (fun _ -> Sched.Done { cycles = costs.(i); accelerated = false }) }
            | 1 ->
                { Sched.t_id = i; t_prefer_ext = true;
                  t_run = (fun _ -> Sched.Done { cycles = costs.(i); accelerated = true }) }
            | _ ->
                (* FAM-style: migrates off base cores with a 5-cycle prefix *)
                { Sched.t_id = i; t_prefer_ext = true;
                  t_run =
                    (fun cls ->
                      match cls with
                      | Sched.Base -> Sched.Migrate { cycles = 5 }
                      | Sched.Extension ->
                          Sched.Done { cycles = costs.(i); accelerated = true }) })
      in
      let cfg =
        { Sched.default_config with base_cores = nb; ext_cores = ne; migrate_cost }
      in
      let r = Sched.run cfg tasks in
      let expected_work =
        Array.to_list costs |> List.fold_left ( + ) 0
        |> fun w -> w + (r.Sched.migrations * (migrate_cost + 5))
      in
      r.Sched.tasks_total = n
      && r.Sched.cpu_time = expected_work
      && r.Sched.latency * (nb + ne) >= r.Sched.cpu_time
      && r.Sched.latency <= r.Sched.cpu_time)

(* --- dense address index ------------------------------------------------------ *)

(* [Slots] maps every indexed address to its position and everything else
   to -1, whatever the gaps: small and large, even and odd. *)
let prop_slots_index =
  QCheck.Test.make ~name:"slots: find = position in the sorted array" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (oneofl [ 1; 2; 4; 6; 100; 5000; 70_000 ]))
    (fun gaps ->
      let next = ref 0x10000 in
      (* List.map applies its function in order, so [addrs] ascends *)
      let addrs =
        Array.of_list
          (List.map
             (fun g ->
               next := !next + g;
               !next)
             gaps)
      in
      let index = Slots.of_sorted addrs in
      let is_member a = Array.exists (( = ) a) addrs in
      let misses a = is_member a || Slots.find index a = -1 in
      Array.for_all Fun.id (Array.mapi (fun k a -> Slots.find index a = k) addrs)
      && Array.for_all (fun a -> misses (a - 1) && misses (a + 1) && misses (a + 2)) addrs
      && misses 0)

(* --- liveness soundness ------------------------------------------------------ *)

(* Clobbering a register that liveness reports dead at a dynamically reached
   point must not change the program result. This validates both the
   dataflow itself and the ABI conventions it assumes.

   The oracle covers what liveness.mli promises: deadness under the ABI.
   One Specgen block breaks the ABI on purpose — the driver block that
   enters victim_fn mid-strip. It sets t0 to the scratch area, loads
   victim_jt and calls through it ([jalr ra, 0(t6)]), passing t0 outside
   the argument registers; that entry is what CHBP's fault recovery exists
   for. Probes in that block are skipped. *)
let enters_victim_mid_strip (b : Cfg.block) =
  let rec last = function [ i ] -> Some i | _ :: rest -> last rest | [] -> None in
  (match last b.b_insns with
  | Some { Disasm.inst = Inst.Jalr (rd, rs1, 0); _ } ->
      Reg.equal rd Reg.ra && Reg.equal rs1 Reg.t6
  | _ -> false)
  && List.exists
       (fun (i : Disasm.insn) -> List.exists (Reg.equal Reg.t0) (Inst.defs i.inst))
       b.b_insns

type liveness_probe = {
  probe : int;
  clobbered : Reg.t list;
  exit : int option;  (** [None]: never reached dynamically *)
  block : Cfg.block option;
}

(* The baseline exit code and four probes drawn from the profile seed. *)
let liveness_trial seed =
  let bin = Specgen.build (small_profile seed) in
  let dis = Disasm.of_binfile bin in
  let cfg = Cfg.of_disasm dis in
  let live = Liveness.compute cfg in
  let run_with_clobber probe clobbered =
    let mem = Loader.load bin in
    let m = Machine.create ~mem ~isa:ext_isa () in
    Loader.init_machine m bin;
    (* step to the probe's first dynamic occurrence, then clobber *)
    let steps = ref 0 in
    let hit = ref false in
    while (not !hit) && !steps < 300_000 do
      if Machine.pc m = probe then hit := true
      else begin
        (match Machine.step m with Some _ -> steps := 300_000 | None -> ());
        incr steps
      end
    done;
    if not !hit then None
    else begin
      List.iter (fun r -> Machine.set_reg m r 0x5151515151515151L) clobbered;
      match Machine.run ~fuel:50_000_000 m with
      | Machine.Exited c -> Some c
      | _ -> Some (-1)
    end
  in
  let baseline =
    let mem = Loader.load bin in
    let m = Machine.create ~mem ~isa:ext_isa () in
    Loader.init_machine m bin;
    match Machine.run ~fuel:50_000_000 m with
    | Machine.Exited c -> c
    | _ -> -2
  in
  (* probe a handful of statically known instruction addresses *)
  let rng = Random.State.make [| seed |] in
  let insns = Array.of_list (Disasm.to_list dis) in
  let probes =
    List.init 4 (fun _ ->
        let probe = insns.(Random.State.int rng (Array.length insns)).Disasm.addr in
        let clobbered = Liveness.dead_regs_at live probe in
        { probe; clobbered; exit = run_with_clobber probe clobbered;
          block = Cfg.block_containing cfg probe })
  in
  (baseline, probes)

let probe_holds baseline p =
  match (p.exit, p.block) with
  | None, _ -> true
  | Some _, Some b when enters_victim_mid_strip b -> true
  | Some c, _ -> c = baseline

let print_liveness_trial seed =
  let baseline, probes = liveness_trial seed in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "profile seed %d, baseline exit %d" seed baseline;
  List.iter
    (fun p ->
      let holds = probe_holds baseline p in
      Printf.bprintf buf "\n  probe 0x%x: clobbered [%s], exit %s%s" p.probe
        (String.concat " " (List.map Reg.name p.clobbered))
        (match p.exit with Some c -> string_of_int c | None -> "unreached")
        (if holds then "" else ", FAILS in block:");
      match p.block with
      | Some b when not holds ->
          List.iter
            (fun i -> Buffer.add_string buf (Format.asprintf "\n      %a" Disasm.pp_insn i))
            b.b_insns
      | _ -> ())
    probes;
  Buffer.contents buf

let prop_liveness_soundness =
  QCheck.Test.make ~name:"liveness: dead registers are really dead" ~count:12
    QCheck.(make ~print:print_liveness_trial Gen.(int_bound 10_000))
    (fun seed ->
      let baseline, probes = liveness_trial seed in
      List.for_all (probe_holds baseline) probes)

(* --- differential fuzzing ----------------------------------------------------- *)

let fuzz_profile seed =
  let rng = Random.State.make [| seed |] in
  { Specgen.sp_name = Printf.sprintf "fuzz%d" seed;
    sp_code_kb = 8 + Random.State.int rng 10;
    sp_ext_pct = 0.005 +. Random.State.float rng 0.04;
    sp_ind_weight = 1 + Random.State.int rng 6;
    sp_vec_heat = 1 + Random.State.int rng 4;
    sp_pressure = Random.State.float rng 0.8;
    sp_hidden = Random.State.float rng 0.1;
    sp_compressed = Random.State.bool rng;
    sp_rounds = 40 + Random.State.int rng 60;
    sp_plain = 2 + Random.State.int rng 8;
    sp_victim_period = 1 lsl Random.State.int rng 5;
    sp_seed = seed }

let prop_differential_rewriting =
  QCheck.Test.make ~name:"fuzz: rewritten binaries preserve semantics" ~count:10
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let pr = fuzz_profile seed in
      let bin = Specgen.build pr in
      let native = Measure.native bin ~isa:ext_isa in
      let expect = native.Measure.exit_code in
      let chbp =
        let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
        (fst (Measure.chimera ctx ~isa:base_isa)).Measure.exit_code
      in
      let straw =
        let ctx = Strawman.rewrite ~mode:Chbp.Downgrade bin in
        (fst (Measure.chimera ctx ~isa:base_isa)).Measure.exit_code
      in
      let safer =
        let rw = Safer.rewrite ~mode:Chbp.Downgrade bin in
        (fst (Measure.safer rw ~isa:base_isa)).Measure.exit_code
      in
      if chbp <> expect then QCheck.Test.fail_reportf "chbp %d <> %d" chbp expect
      else if straw <> expect then QCheck.Test.fail_reportf "strawman %d <> %d" straw expect
      else if safer <> expect then QCheck.Test.fail_reportf "safer %d <> %d" safer expect
      else true)

(* the Fig. 5 pipeline (idiom trampolines, resident traps over bypassed
   sources, backward pair discovery during lazy extension) fuzzed on
   uncompressed binaries *)
let prop_differential_greg =
  QCheck.Test.make ~name:"fuzz: general-register rewriting preserves semantics"
    ~count:8
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let pr = { (fuzz_profile seed) with Specgen.sp_compressed = false } in
      let bin = Specgen.build pr in
      let expect = (Measure.native bin ~isa:ext_isa).Measure.exit_code in
      let ctx =
        Chbp.rewrite
          ~options:{ (Chbp.default_options Chbp.Downgrade) with use_gp = false }
          bin
      in
      let got = (fst (Measure.chimera ctx ~isa:base_isa)).Measure.exit_code in
      if got <> expect then QCheck.Test.fail_reportf "greg %d <> %d" got expect
      else true)

(* --- block-engine differential ----------------------------------------------- *)

(* The translation-block engine must be observably identical to the
   single-step interpreter: same stop condition, registers, pc and counters
   on random programs, at arbitrary fuel limits (so fuel can run out in the
   middle of a block), with and without the icache model, and across
   runtime code patching (CHBP lazy rewriting rewrites code a cached block
   already covers). *)

type snap = {
  sn_stop : Machine.stop;
  sn_regs : int64 list;
  sn_pc : int;
  sn_retired : int;
  sn_cycles : int;
  sn_vector : int;
  sn_indirect : int;
  sn_imisses : int;
}

let snapshot m stop =
  { sn_stop = stop;
    sn_regs = List.init 32 (fun i -> Machine.get_reg m (Reg.of_int i));
    sn_pc = Machine.pc m;
    sn_retired = Machine.retired m;
    sn_cycles = Machine.cycles m;
    sn_vector = Machine.vector_retired m;
    sn_indirect = Machine.indirect_retired m;
    sn_imisses = Machine.icache_misses m }

let pp_snap s =
  let stop =
    match s.sn_stop with
    | Machine.Exited c -> Printf.sprintf "exit %d" c
    | Machine.Faulted f -> Printf.sprintf "fault %s" (Fault.to_string f)
    | Machine.Fuel_exhausted -> "fuel"
  in
  Printf.sprintf "%s pc=%#x retired=%d cycles=%d vec=%d ind=%d imiss=%d" stop
    s.sn_pc s.sn_retired s.sn_cycles s.sn_vector s.sn_indirect s.sn_imisses

let check_snaps ~what step block =
  if step <> block then
    QCheck.Test.fail_reportf "%s: single-step { %s } <> block engine { %s }" what
      (pp_snap step) (pp_snap block)
  else true

(* the tiered engine runs blocks at every tier: straight-line, superblock
   and IR-optimized *)
let tiered = Engine.Tiered { record = false }

let run_native engine ~icache ~fuel bin isa =
  let mem = Loader.load bin in
  let icache = if icache then Some Icache.default_geometry else None in
  let m = Machine.create ~engine ?icache ~mem ~isa () in
  Loader.init_machine m bin;
  snapshot m (Machine.run ~fuel m)

let prop_block_engine_native =
  QCheck.Test.make
    ~name:"block engine: bit-identical to single-step (random programs, random fuel)"
    ~count:12
    QCheck.(
      make
        Gen.(
          let* seed = int_bound 100_000 in
          let* fuel = int_range 1_000 400_000 in
          let* icache = bool in
          return (seed, fuel, icache)))
    (fun (seed, fuel, icache) ->
      let bin = Specgen.build (fuzz_profile seed) in
      let what = Printf.sprintf "native seed=%d fuel=%d" seed fuel in
      let step = run_native Engine.Step ~icache ~fuel bin ext_isa in
      let plain = run_native tiered ~icache ~fuel bin ext_isa in
      let chained = run_native Engine.default ~icache ~fuel bin ext_isa in
      check_snaps ~what:(what ^ " (tiered)") step plain
      && check_snaps ~what:(what ^ " (chained)") step chained)

(* Lazy rewriting: the runtime patches code on the first fault at each site,
   i.e. it overwrites bytes that a cached translation block (from executing
   up to the fault) already covers. The patched bytes must be picked up —
   including through direct chain links, which are severed by the code-epoch
   bump the patch performs. *)
let run_chimera engine seed =
  let bin = Specgen.build (fuzz_profile seed) in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  let m = Machine.create ~engine ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  snapshot m (Chimera_rt.run rt ~fuel:50_000_000 m)

(* --- IR translation pipeline differential ------------------------------------ *)

(* Random loop bodies over a register pool, salted with the exact patterns
   the IR passes fold, kill and fuse: W-type arithmetic (native-int emitter
   arms), RMW triples, adjacent-pair loads, mixed-width stores. Each program
   runs in three phases — a warm run cut off mid-block by exact fuel, a
   continuation across an in-place code patch (SMC invalidation of a cached,
   already-hot block), and a continuation across a warm-TLB permission
   downgrade that makes the loop's next store fault. Step, straight-line
   block, superblock-with-IR and superblock-without-IR must agree
   bit-for-bit on registers, retired counts, pcs and fault identity at every
   phase boundary. *)

let ir_pool = [| 5; 6; 7; 12; 13; 14; 15; 28; 29; 30; 31 |]

let ir_program rng =
  let reg () = Reg.of_int ir_pool.(Random.State.int rng (Array.length ir_pool)) in
  let a = Asm.create ~name:"irfuzz" () in
  Asm.func a "_start";
  Asm.la a Reg.a0 "data";
  let niter = 1500 + Random.State.int rng 1000 in
  Asm.li a Reg.a1 niter;
  Array.iter
    (fun i -> Asm.li a (Reg.of_int i) (Random.State.int rng 0x10000))
    ir_pool;
  Asm.label a "L";
  let patch_off = Asm.here a in
  (* x18 (s2) sits outside the compressed register file, so this xori always
     encodes in 4 bytes — the SMC phase overwrites it in place *)
  Asm.inst a (Inst.Opi (Inst.Xori, Reg.s2, Reg.s2, 0x55));
  let n = 4 + Random.State.int rng 8 in
  for _ = 1 to n do
    match Random.State.int rng 12 with
    | 0 | 1 | 2 ->
        let ops = [| Inst.Add; Inst.Sub; Inst.And; Inst.Or; Inst.Xor; Inst.Mul |] in
        Asm.inst a (Inst.Op (ops.(Random.State.int rng 6), reg (), reg (), reg ()))
    | 3 | 4 ->
        let ops =
          [| Inst.Addw; Inst.Subw; Inst.Mulw; Inst.Sllw; Inst.Srlw; Inst.Sraw |]
        in
        Asm.inst a (Inst.Op (ops.(Random.State.int rng 6), reg (), reg (), reg ()))
    | 5 ->
        Asm.inst a
          (Inst.Opi (Inst.Addi, reg (), reg (), Random.State.int rng 2048 - 1024))
    | 6 ->
        let ops = [| Inst.Slliw; Inst.Srliw; Inst.Sraiw; Inst.Addiw |] in
        Asm.inst a
          (Inst.Opi (ops.(Random.State.int rng 4), reg (), reg (), Random.State.int rng 31))
    | 7 ->
        let ops = [| Inst.Slli; Inst.Srli; Inst.Srai |] in
        Asm.inst a
          (Inst.Opi (ops.(Random.State.int rng 3), reg (), reg (), Random.State.int rng 63))
    | 8 ->
        (* adjacent 8-byte loads off one base: ld_pair fusion *)
        let r1 = reg () and r2 = reg () in
        Asm.inst a
          (Inst.Load { width = Inst.D; unsigned = false; rd = r1; rs1 = Reg.a0; imm = 0 });
        Asm.inst a
          (Inst.Load { width = Inst.D; unsigned = false; rd = r2; rs1 = Reg.a0; imm = 8 })
    | 9 ->
        (* RMW triple: load/alu/store to one address *)
        let r = reg () in
        Asm.inst a
          (Inst.Load { width = Inst.D; unsigned = false; rd = r; rs1 = Reg.a0; imm = 16 });
        Asm.inst a (Inst.Opi (Inst.Addi, r, r, 3));
        Asm.inst a (Inst.Store { width = Inst.D; rs2 = r; rs1 = Reg.a0; imm = 16 })
    | 10 ->
        let widths = [| Inst.W; Inst.H; Inst.B |] in
        Asm.inst a
          (Inst.Load
             { width = widths.(Random.State.int rng 3);
               unsigned = Random.State.bool rng; rd = reg (); rs1 = Reg.a0;
               imm = 8 * Random.State.int rng 3 })
    | _ ->
        let widths = [| Inst.D; Inst.W; Inst.H; Inst.B |] in
        Asm.inst a
          (Inst.Store
             { width = widths.(Random.State.int rng 4); rs2 = reg (); rs1 = Reg.a0;
               imm = 24 })
  done;
  (* at least one store per iteration, so a permission downgrade faults
     within one trip round the loop *)
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.s2; rs1 = Reg.a0; imm = 0 });
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 16));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
  Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "L";
  Array.iter
    (fun i -> Asm.inst a (Inst.Op (Inst.Add, Reg.a1, Reg.a1, Reg.of_int i)))
    ir_pool;
  Asm.inst a (Inst.Op (Inst.Add, Reg.a1, Reg.a1, Reg.s2));
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.a1, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.dlabel a "data";
  for _ = 0 to (niter * 2) + 8 do
    Asm.dword64 a (Int64.of_int (Random.State.int rng 0x3FFFFFF))
  done;
  let bin = Asm.assemble a in
  (bin, (Binfile.symbol bin "_start").Binfile.sym_addr + patch_off)

let run_ir_phases ?icache engine bin ~patch_addr ~f1 ~f2 =
  let mem = Loader.load bin in
  let m = Machine.create ~engine ?icache ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  let s1 = snapshot m (Machine.run ~fuel:f1 m) in
  (* SMC: flip the xori's immediate under a cached, already-executed block;
     every engine sees the patch at the same instruction boundary because
     the phase fuels are exact *)
  let buf = Bytes.create 4 in
  ignore (Encode.write buf 0 (Inst.Opi (Inst.Xori, Reg.s2, Reg.s2, 0xAA)));
  Memory.poke_bytes mem patch_addr buf;
  Machine.invalidate_code m ~addr:patch_addr ~len:4;
  let s2 = snapshot m (Machine.run ~fuel:f2 m) in
  (* warm-TLB permission downgrade: the data pages turn read-only mid-loop;
     the next store must fault at the same pc in every engine, through any
     cached translation, chain link or elided-check fused unit *)
  List.iter
    (fun (s : Binfile.section) ->
      if s.Binfile.sec_perm.Memory.w then
        Memory.set_perm mem ~addr:s.Binfile.sec_addr
          ~len:(Bytes.length s.Binfile.sec_data) Memory.perm_r)
    bin.Binfile.sections;
  let s3 = snapshot m (Machine.run ~fuel:50_000 m) in
  (s1, s2, s3)

let prop_ir_pipeline_differential =
  QCheck.Test.make
    ~name:
      "ir: step/block/super/no-ir bit-identical across SMC patch and TLB downgrade"
    ~count:12
    QCheck.(
      make
        Gen.(
          let* seed = int_bound 100_000 in
          let* f1 = int_range 500 6_000 in
          let* f2 = int_range 500 6_000 in
          return (seed, f1, f2)))
    (fun (seed, f1, f2) ->
      let bin, patch_addr = ir_program (Random.State.make [| seed |]) in
      List.for_all
        (fun (label, engine, icache) ->
          (* the oracle runs under the same icache model, which charges
             cycles *)
          let r1, r2, r3 = run_ir_phases ?icache Engine.Step bin ~patch_addr ~f1 ~f2 in
          let b1, b2, b3 = run_ir_phases ?icache engine bin ~patch_addr ~f1 ~f2 in
          let what p =
            Printf.sprintf "ir seed=%d f1=%d f2=%d %s phase%d" seed f1 f2 label p
          in
          check_snaps ~what:(what 1) r1 b1
          && check_snaps ~what:(what 2) r2 b2
          && check_snaps ~what:(what 3) r3 b3)
        [ ("tiered", tiered, None);
          ("super", Engine.default, None);
          (* the icache model caps translation at IR-less superblocks *)
          ("super-noir", Engine.default, Some Icache.default_geometry) ])

let prop_block_engine_self_modifying =
  QCheck.Test.make
    ~name:"block engine: identical across runtime code patching (lazy rewrite)"
    ~count:8
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let step = run_chimera Engine.Step seed in
      let plain = run_chimera tiered seed in
      let chained = run_chimera Engine.default seed in
      check_snaps ~what:(Printf.sprintf "chimera seed=%d (tiered)" seed) step plain
      && check_snaps ~what:(Printf.sprintf "chimera seed=%d (chained)" seed) step chained)

let () =
  Alcotest.run "chimera_properties"
    [ ("smile",
       List.map QCheck_alcotest.to_alcotest
         [ prop_smile_next_target; prop_smile_write_decodes ]);
      ("codebuf", [ QCheck_alcotest.to_alcotest prop_codebuf_branch_web ]);
      ("memory",
       List.map QCheck_alcotest.to_alcotest
         [ prop_memory_roundtrip; prop_poke_bytes_pagewise ]);
      ("packed-simd", [ QCheck_alcotest.to_alcotest prop_p_semantics ]);
      ("upgrade", [ QCheck_alcotest.to_alcotest prop_upgrade_equivalence ]);
      ("redirects",
       [ QCheck_alcotest.to_alcotest prop_redirects_land_in_executable_code ]);
      ("sched", [ QCheck_alcotest.to_alcotest prop_sched_work_conservation ]);
      ("slots", [ QCheck_alcotest.to_alcotest prop_slots_index ]);
      ("liveness", [ QCheck_alcotest.to_alcotest prop_liveness_soundness ]);
      ("differential",
       List.map QCheck_alcotest.to_alcotest
         [ prop_differential_rewriting; prop_differential_greg ]);
      ("block-engine",
       List.map QCheck_alcotest.to_alcotest
         [ prop_block_engine_native; prop_block_engine_self_modifying ]);
      ("ir", [ QCheck_alcotest.to_alcotest prop_ir_pipeline_differential ]) ]
