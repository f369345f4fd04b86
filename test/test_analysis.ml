(* Tests for riscv_analysis: recursive-descent coverage, CFG shape, and
   the conservative liveness the rewriter's dead-register search uses. *)

let exit_seq a =
  [ Inst.Opi (Inst.Addi, Reg.a7, Reg.x0, 93); Inst.Opi (Inst.Addi, Reg.a0, Reg.x0, a);
    Inst.Ecall ]

(* --- disassembler ------------------------------------------------------- *)

let test_linear_coverage () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 1;
  Asm.li a Reg.t1 2;
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let dis = Disasm.of_binfile bin in
  Alcotest.(check int) "all insns found" 5 (Disasm.count dis);
  Alcotest.(check int) "all bytes covered" (Binfile.code_size bin)
    (Disasm.covered_bytes dis)

let test_follows_branches_and_calls () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.a0 0;
  Asm.call a "helper";
  Asm.branch_to a Inst.Beq Reg.a0 Reg.x0 "done";
  Asm.li a Reg.a0 1;
  Asm.label a "done";
  Asm.insts a (exit_seq 0);
  Asm.func a "helper";
  Asm.ret a;
  let bin = Asm.assemble a in
  let dis = Disasm.of_binfile bin in
  Alcotest.(check int) "covered = code size" (Binfile.code_size bin)
    (Disasm.covered_bytes dis)

let test_jump_table_targets_missed_without_symbols () =
  (* Cases reachable only through an indirect jump are invisible to
     recursive descent — the paper's incompleteness scenario (§4.1). *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.la a Reg.t1 "table";
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t2; rs1 = Reg.t1; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t2, 0));
  Asm.hidden_func a "case0";
  Asm.insts a (exit_seq 0);
  Asm.rlabel a "table";
  Asm.rword_label a "case0";
  let bin = Asm.assemble a in
  let dis = Disasm.of_binfile bin in
  let case0 = ref 0 in
  (* find case0's address: right after the jalr (4+4+4+4+4 = 20 bytes in) *)
  case0 := Layout.text_base + 20;
  Alcotest.(check bool) "case0 not discovered" true (Disasm.find dis !case0 = None);
  Alcotest.(check bool) "entry discovered" true
    (Disasm.find dis Layout.text_base <> None)

let test_flow_classification () =
  let mk inst = { Disasm.addr = 0x1000; inst; size = Inst.size inst } in
  let check name inst expect =
    Alcotest.(check bool) name true (Disasm.flow_of (mk inst) = expect)
  in
  check "ret" (Inst.Jalr (Reg.x0, Reg.ra, 0)) Disasm.Ret;
  check "indirect jump" (Inst.Jalr (Reg.x0, Reg.t0, 0)) Disasm.Indirect_jump;
  check "indirect call" (Inst.Jalr (Reg.ra, Reg.t0, 0)) Disasm.Indirect_call;
  check "call" (Inst.Jal (Reg.ra, 64)) (Disasm.Call (0x1000 + 64));
  check "jump" (Inst.Jal (Reg.x0, -8)) (Disasm.Jump (0x1000 - 8));
  check "branch" (Inst.Branch (Inst.Beq, Reg.a0, Reg.a1, 16)) (Disasm.Branch 0x1010);
  check "cbnez" (Inst.C_bnez (Reg.s0, 32)) (Disasm.Branch 0x1020);
  check "fall" (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 1)) Disasm.Fallthrough

(* --- CFG ----------------------------------------------------------------- *)

let diamond_binary () =
  (* _start:  beq a0, x0, else
              li a1, 1
              j join
     else:    li a1, 2
     join:    exit *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.branch_to a Inst.Beq Reg.a0 Reg.x0 "else_";
  Asm.li a Reg.a1 1;
  Asm.j a "join";
  Asm.label a "else_";
  Asm.li a Reg.a1 2;
  Asm.label a "join";
  Asm.insts a (exit_seq 0);
  Asm.assemble a

let test_cfg_diamond () =
  let bin = diamond_binary () in
  let dis = Disasm.of_binfile bin in
  let cfg = Cfg.of_disasm dis in
  let blocks = Cfg.blocks cfg in
  Alcotest.(check int) "4 blocks" 4 (List.length blocks);
  let entry = List.hd blocks in
  Alcotest.(check int) "entry block has 1 insn" 1 (List.length entry.Cfg.b_insns);
  Alcotest.(check int) "entry has 2 successors" 2 (List.length entry.Cfg.b_succs);
  (* join block has two predecessors *)
  let join =
    List.find
      (fun b ->
        match b.Cfg.b_insns with
        | { Disasm.inst = Inst.Opi (Inst.Addi, rd, _, 93); _ } :: _ ->
            Reg.equal rd Reg.a7
        | _ -> false)
      blocks
  in
  Alcotest.(check int) "join preds" 2 (List.length (Cfg.preds cfg join.Cfg.b_addr))

let test_cfg_indirect_is_unknown () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t0, 0));
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  match Cfg.blocks cfg with
  | [ b ] -> Alcotest.(check bool) "unknown succ" true (b.Cfg.b_succs = [ Cfg.Sunknown ])
  | bs -> Alcotest.failf "expected 1 block, got %d" (List.length bs)

(* --- liveness ------------------------------------------------------------ *)

let test_liveness_simple_dead_reg () =
  (* t0 is overwritten before any use -> dead at entry; a0 is read -> live. *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.label a "probe";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.a0, 1));  (* uses a0 *)
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.x0, 5));  (* defs t0 *)
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.t0, Reg.t1));
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let live = Liveness.compute cfg in
  match Liveness.live_in_at live Layout.text_base with
  | None -> Alcotest.fail "no liveness at entry"
  | Some mask ->
      Alcotest.(check bool) "a0 live" true (Regmask.mem Reg.a0 mask);
      Alcotest.(check bool) "t0 dead" false (Regmask.mem Reg.t0 mask);
      (match Liveness.dead_at live Layout.text_base with
      | Some r -> Alcotest.(check bool) "found a dead temp" true
                    (not (Regmask.mem r mask))
      | None -> Alcotest.fail "expected a dead register")

let test_liveness_conservative_at_indirect () =
  (* Before an indirect jump everything is live (unknown continuation). *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.x0, 0));
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t0, 0));
  let bin = Asm.assemble a in
  let live = Liveness.compute (Cfg.of_disasm (Disasm.of_binfile bin)) in
  (* at the jalr itself: everything except its own defs is live *)
  match Liveness.live_in_at live (Layout.text_base + 4) with
  | None -> Alcotest.fail "no liveness"
  | Some mask ->
      Alcotest.(check bool) "s0 live (conservative)" true (Regmask.mem Reg.s0 mask);
      Alcotest.(check bool) "a0 live (conservative)" true (Regmask.mem Reg.a0 mask);
      Alcotest.(check bool) "dead_at finds nothing" true
        (Liveness.dead_at live (Layout.text_base + 4) = None)

let test_liveness_call_clobbers () =
  (* After a call, caller-saved registers are dead (clobbered by the call)
     unless reloaded; callee-saved survive. *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.call a "f";
  Asm.label a "after";
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.s0, Reg.s0));  (* uses s0 *)
  Asm.insts a (exit_seq 0);
  Asm.func a "f";
  Asm.ret a;
  let bin = Asm.assemble a in
  let live = Liveness.compute (Cfg.of_disasm (Disasm.of_binfile bin)) in
  (* at the call: argument registers are live (callee may read them), and
     s0 is live (used after return). t-registers are not. *)
  match Liveness.live_in_at live Layout.text_base with
  | None -> Alcotest.fail "no liveness"
  | Some mask ->
      Alcotest.(check bool) "a0 live at call" true (Regmask.mem Reg.a0 mask);
      Alcotest.(check bool) "s0 live at call" true (Regmask.mem Reg.s0 mask);
      Alcotest.(check bool) "t3 dead at call" false (Regmask.mem Reg.t3 mask)

let test_liveness_loop () =
  (* Loop counter stays live around the back edge. *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 10;
  Asm.label a "loop";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.branch_to a Inst.Bne Reg.t0 Reg.x0 "loop";
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let live = Liveness.compute (Cfg.of_disasm (Disasm.of_binfile bin)) in
  (* inside the loop body, t0 is live *)
  match Liveness.live_in_at live (Layout.text_base + 4) with
  | None -> Alcotest.fail "no liveness"
  | Some mask -> Alcotest.(check bool) "t0 live in loop" true (Regmask.mem Reg.t0 mask)

let test_liveness_return_abi () =
  (* at a ret, only a0/a1 + callee-saved are live: t-registers are dead *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.call a "f";
  Asm.insts a (exit_seq 0);
  Asm.func a "f";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t3, Reg.x0, 7));
  Asm.ret a;
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let live = Liveness.compute cfg in
  let f = (Binfile.symbol bin "f").Binfile.sym_addr in
  let dead = Liveness.dead_regs_at live f in
  Alcotest.(check bool) "t3 dead before its own def... is live-out as write target"
    true
    (List.exists (Reg.equal Reg.t4) dead);
  Alcotest.(check bool) "a0 not dead at a return-reaching point" false
    (List.exists (Reg.equal Reg.a0) dead)

let test_liveness_avoid_filter () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.insts a (exit_seq 3);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let live = Liveness.compute cfg in
  let entry = bin.Binfile.entry in
  (match Liveness.dead_at live entry with
  | Some r ->
      (* asking to avoid that exact register must yield a different one *)
      (match Liveness.dead_at live ~avoid:[ r ] entry with
      | Some r' -> Alcotest.(check bool) "avoided" false (Reg.equal r r')
      | None -> ())
  | None -> Alcotest.fail "trivial program must have a dead register")

let test_cfg_splits_at_branch_target () =
  (* a backwards branch into the middle of straight-line code must split
     the containing block exactly at the target *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 3;
  Asm.label a "top";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 1));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.branch_to a Inst.Bne Reg.t0 Reg.x0 "top";
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  (* the loop head starts its own block even though control falls into it *)
  let top = bin.Binfile.entry + 4 in  (* li = one addi *)
  match Cfg.block_containing cfg top with
  | Some b -> Alcotest.(check int) "block starts at branch target" top b.Cfg.b_addr
  | None -> Alcotest.fail "no block at loop head"

let test_cfg_dot_render () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.branch_to a Inst.Beq Reg.a0 Reg.x0 "z";
  Asm.li a Reg.a0 1;
  Asm.label a "z";
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let dot = Format.asprintf "%a" Cfg.pp_dot cfg in
  Alcotest.(check bool) "digraph wrapper" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  (* one node line per block *)
  let blocks = List.length (Cfg.blocks cfg) in
  let count_sub sub =
    let n = ref 0 and i = ref 0 in
    let ls = String.length sub in
    while !i + ls <= String.length dot do
      if String.sub dot !i ls = sub then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check int) "one label per block" blocks (count_sub "label=")

let test_regmask () =
  let m = Regmask.of_list [ Reg.a0; Reg.t0 ] in
  Alcotest.(check bool) "mem a0" true (Regmask.mem Reg.a0 m);
  Alcotest.(check bool) "not mem a1" false (Regmask.mem Reg.a1 m);
  Alcotest.(check bool) "x0 never in mask" false (Regmask.mem Reg.x0 Regmask.all);
  Alcotest.(check int) "diff" (Regmask.singleton Reg.t0)
    (Regmask.diff m (Regmask.singleton Reg.a0));
  Alcotest.(check (list string)) "to_list" [ "t0"; "a0" ]
    (List.map Reg.name (Regmask.to_list m))

(* --- golden equivalence ---------------------------------------------------

   Digests of everything the analysis layer exposes — and of what CHBP
   builds from it — for every Specgen profile at its fixed seed. Each
   profile is analysed twice: from the disassembly roots the rewriter uses
   (entry + symbols), and from those roots plus every 32-byte-aligned
   address of every code section, which reaches the hidden functions and
   starts decoding inside instructions. Any change to discovered
   instructions, block boundaries, successor or predecessor order, or a
   single liveness bit changes a digest. *)

let all_profiles = Specgen.spec_profiles @ Specgen.realworld_profiles

(* The rewriter's roots (entry + symbols) plus every 32-byte-aligned
   address of every code section. *)
let sweep_roots (bin : Binfile.t) =
  (bin.Binfile.entry :: List.map (fun s -> s.Binfile.sym_addr) bin.Binfile.symbols)
  @ List.concat_map
      (fun (s : Binfile.section) ->
        List.init (Bytes.length s.sec_data / 32) (fun k -> s.sec_addr + (32 * k)))
      (Binfile.code_sections bin)

let hex_digest s = Digest.to_hex (Digest.string s)

(* Digests of the disassembly, the CFG and the liveness, in that order. *)
let analysis_digests buf dis =
  let add fmt = Printf.bprintf buf fmt in
  let take () =
    let d = hex_digest (Buffer.contents buf) in
    Buffer.clear buf;
    d
  in
  let cfg = Cfg.of_disasm dis in
  let live = Liveness.compute cfg in
  add "insns %d bytes %d\n" (Disasm.count dis) (Disasm.covered_bytes dis);
  Disasm.iter dis (fun (i : Disasm.insn) ->
      add "%x %d %s\n" i.addr i.size (Inst.to_string i.inst));
  let dis_d = take () in
  let succ = function
    | Cfg.Sblock a -> Printf.sprintf "b%x" a
    | Cfg.Sunknown -> "?"
    | Cfg.Sreturn -> "ret"
  in
  List.iter
    (fun (b : Cfg.block) ->
      add "%x-%x n%d [%s] call=%s preds=[%s]\n" b.b_addr (Cfg.block_end b)
        (List.length b.b_insns)
        (String.concat " " (List.map succ b.b_succs))
        (match b.b_call with Some c -> Printf.sprintf "%x" c | None -> "-")
        (String.concat " " (List.map (Printf.sprintf "%x") (Cfg.preds cfg b.b_addr)));
      List.iter
        (fun (i : Disasm.insn) ->
          match Cfg.block_containing cfg i.addr with
          | Some c when c.b_addr = b.b_addr -> ()
          | _ -> add "containing %x wrong\n" i.addr)
        b.b_insns)
    (Cfg.blocks cfg);
  let cfg_d = take () in
  let regs rs = String.concat "," (List.map Reg.name rs) in
  List.iter
    (fun (b : Cfg.block) ->
      add "out %x %x\n" b.b_addr (Liveness.live_out live b.b_addr);
      List.iter
        (fun (i : Disasm.insn) ->
          add "%x in=%s dead=%s regs=[%s]\n" i.addr
            (match Liveness.live_in_at live i.addr with
            | Some m -> Printf.sprintf "%x" m
            | None -> "-")
            (match Liveness.dead_at live i.addr with Some r -> Reg.name r | None -> "-")
            (regs (Liveness.dead_regs_at live i.addr)))
        b.b_insns)
    (Cfg.blocks cfg);
  let live_d = take () in
  (dis_d, cfg_d, live_d)

let chbp_digest (bin : Binfile.t) =
  let r = Chbp.rewrite bin in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Binfile.section) ->
      Printf.bprintf buf "%s %x %s\n" s.sec_name s.sec_addr
        (Digest.to_hex (Digest.bytes s.sec_data)))
    (Chbp.result r).Binfile.sections;
  let s = Chbp.stats r in
  Printf.bprintf buf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d\n" s.source_insts
    s.sites s.trap_entries s.odd_entry_traps s.batches s.exits s.exit_liveness
    s.exit_shift s.exit_terminator s.exit_trap s.table_entries s.target_bytes
    s.lazy_sites (Chbp.gp_value r);
  hex_digest (Buffer.contents buf)

(* [disasm; cfg; liveness; chbp] *)
let profile_digests (pr : Specgen.profile) =
  let bin = Specgen.build pr in
  let buf = Buffer.create (1 lsl 20) in
  let d1, c1, l1 = analysis_digests buf (Disasm.of_binfile bin) in
  let d2, c2, l2 = analysis_digests buf (Disasm.of_binfile_at bin ~roots:(sweep_roots bin)) in
  [ hex_digest (d1 ^ d2); hex_digest (c1 ^ c2); hex_digest (l1 ^ l2); chbp_digest bin ]

(* name, [disasm; cfg; liveness; chbp]. Captured from the hash-table
   analysis that the dense one replaced, so a pass shows the two agree. *)
let golden : (string * string list) list =
  [ ("perlbench_r",
     [ "ded1978138888dfa2db3f8446027348f"; "09327338287024cc6e83fcc42c5820d2";
       "4fba517e4b8f888819cf7aefcc66e2b1"; "57ed4979403b87c53a1e43d0731bae34" ]);
    ("perlbench_s",
     [ "55d1d1f8ad71c928a37ef2af3010dabf"; "a6b59944d7f3d445e01dd624bf923de6";
       "de50505b32f9a420b2b76a9d00bbc4dc"; "7396a3f6114501504fd9b4016fafc653" ]);
    ("gcc_r",
     [ "75c591094e2a02049c02e3bde6473b22"; "ac398a8b94a1aea4924b6b9450f97e28";
       "4451100a0f0640f7a5a12218cc3331ea"; "eaac74686617e4af338b5587939d0599" ]);
    ("gcc_s",
     [ "bb7eb705021c817362c07107fb9dc5c0"; "569f0031df208b969d726e6ae3067434";
       "4a005ace78a94512e5466a6f7a0a129f"; "3aab2acae0232dbaf45f9de8ee6b3995" ]);
    ("omnetpp_r",
     [ "6220efbf6c38a5d32c61c3bd6bcc033d"; "0d4586c19653d372aa7b8936549e84a3";
       "fddb285de9a3030a6e5ca04fdc57d211"; "d3e7fb78453f6d5058753cc9130e8c22" ]);
    ("omnetpp_s",
     [ "ebe1d95ed8906c137e5b2c9722256ad1"; "fb48e03bd0fe7440ef780dc6f95177a0";
       "07e60f92c902976105bd78cdd3e07fe3"; "7abd2d44322f428948da5af4ec670d9b" ]);
    ("xalancbmk_r",
     [ "97f2e61e73e2eeafed0ee239b61323a2"; "adf3b7cd2b0acdff62bc92678ad3ba75";
       "6d20fd94563bd310b4656860d059383a"; "330a91eadc50e7990bf6ea8902f7065a" ]);
    ("xalancbmk_s",
     [ "2cccda652e03351dedee2882a0d80202"; "7bb5af0424f494194d69bf9a36320c14";
       "ce2f5e94a42bbba9d26276379ce27a91"; "21a7ca954a1b18abe697b4f3070c62ab" ]);
    ("cactuBSSN_r",
     [ "e9a801e3228970ac5e7f178f7808a322"; "3f44f99f623d1f73ad48a44a6c42c62e";
       "c2ab547f69e17cb72b632976dbddcefd"; "f986e660f6d1dd96c190ccf664e3d735" ]);
    ("cactuBSSN_s",
     [ "2914fb8e10e3bf7a34a6ad9bb6560c18"; "7665a386d463ce00bdc3aebd54d1f273";
       "a6ceb04ea486b7d7106965e6b0da01e6"; "6f74e51cf3c892598e5a72270551cd16" ]);
    ("parest_r",
     [ "fb12c505bf367f21f86283a21abc9752"; "0d9a6c5812eeb883c032edede64d84df";
       "4dce7493f830c88b82678b13b7a32e39"; "63f9924e67f6d9e34a7e3f20dad5c07a" ]);
    ("wrf_r",
     [ "8904a88abe6a175d99231bb1d7321914"; "11015fca3064cc5faf3d8c581c54baab";
       "17e8c036fd16782543244177951eb7ce"; "9897e3fdf88035f215e356ff4eb4116e" ]);
    ("wrf_s",
     [ "da34e7c86c4aac6056203f1d3960e3ff"; "71f7a82919535ada95483d46628f47e5";
       "0500bea18f4e630a4c6cb722c305402a"; "dc0036dec8b71c65b91b9058c3de9956" ]);
    ("blender_r",
     [ "6a5d0f58ebb6645fe1d3b932dff1bf5a"; "34dd31ba9aee38a806dc426f0f591074";
       "d4005a20e653cc999c61595731734ac0"; "f17cfec87f681499853c8c51a300091d" ]);
    ("cam4_r",
     [ "47b8aba13f331b7f99484863ae3a96b6"; "4ccf4a70a11ebc96e6a2a230a5870623";
       "6e99a24d8a5e81e0c73f48f596b7a3db"; "4702093adb31bfe75100407843f096a3" ]);
    ("cam4_s",
     [ "80f27fda2362013cbae36d27a8398d96"; "ccba25ce610fad39a772f786205207fb";
       "2d0899b2d7d0ddb06e2192422f41db43"; "dcf0c94478b8d25e7f9e896f657fa015" ]);
    ("imagick_r",
     [ "c432fa8088201c1b1aab8c319c71fdd5"; "7524b81cc92c9e7cd8ddecfc2b9f495a";
       "08f6e0d263334719a86f70e99251f2eb"; "58348159e7747408177c5f8767ff7f2a" ]);
    ("imagick_s",
     [ "1dcb7adf9fc4a4b3c38d8dca3401b617"; "1b327fa6c3906478c98357b36b665673";
       "67f269c3ddcc1915d6fcce99cf557c6c"; "8df540006c440e643c801ef0dc930f83" ]);
    ("pop2_s",
     [ "3c79ce7ff0a4eb5373184d3bed6c9ea5"; "bb5ffaa48c88afdb13f7659eebfd319f";
       "2bc756e8ef642121cb03a4e0bdb8f8f1"; "4d2cb537c0972b73a88192782278ed01" ]);
    ("Git",
     [ "bcfc3e33d7711967f884fd34f9edda17"; "d33ac2ef29f7be43a6f968b10bcd003c";
       "ac205fab5bc1741a1cc602d57b2a4b9d"; "bf10e5506bfa01d567113588d1963ad1" ]);
    ("Vim",
     [ "78c17ca60bb2ec0a3849ffc6f83b2efa"; "9ac38d2ce4707fb8955fd3728e9d99a2";
       "46f0e26bdcb20f13be31098b65c996c6"; "1728464a49009b67b4f1d931478365a4" ]);
    ("GIMP",
     [ "d5faebecdcf1b59613be421b4fde8387"; "1aa32f18394df20f513a8d0f484a6d05";
       "059c6c585a9dde4dff46df5deb918d44"; "a23e6d1f2debf5a286d13c274609bbd6" ]);
    ("CMake",
     [ "0faa4b57a3e0cd38a0f4f6f27ec1a9a7"; "ae1312d72ceac30cb152f856b46087d7";
       "624d7879f0983892d74845bb6a74b4b6"; "e181893778ac4c16a4da81ff0aabddf4" ]);
    ("CTest",
     [ "530674db41750b7102d25e1891ceb5af"; "e0879be3521955cfa579045cd1426f1f";
       "e0f4d96fe3b09457f352abb684070084"; "de60b8e14b81fa47f8eb2cbf79ec2c65" ]);
    ("Python",
     [ "31192a5c76d8e95277e0fe7163965e7e"; "3f6ef4819128168328c0f70b87bb0029";
       "c1ac6d99bcd50c9783c9765908866f53"; "05baa307b20a91a8b84d2c3c0ca3a255" ]);
    ("Libopenblas",
     [ "2807e1d721e9663576f54f4fe7b75417"; "b4dea45802b0b605a33ef56ce7f19845";
       "10615a198fe122404a8133218c9ebd5c"; "9c0daf72c1a28e3e2250d0fae2025ce2" ]) ]

let test_golden_equivalence () =
  let mismatches =
    List.concat_map
      (fun (pr : Specgen.profile) ->
        let got = profile_digests pr in
        if Some got = List.assoc_opt pr.sp_name golden then []
        else
          [ Printf.sprintf "    (%S, [ %s ]);" pr.sp_name
              (String.concat "; " (List.map (Printf.sprintf "%S") got)) ])
      all_profiles
  in
  if mismatches <> [] then
    Alcotest.failf "analysis digests differ from the golden table; got:\n%s"
      (String.concat "\n" mismatches)

(* --- stored facts against fresh decoding -------------------------------------

   Disassembly stores each instruction's facts (size, kind, target,
   extension, register masks) when it is discovered and decodes an
   [Inst.t] again only when asked; the CFG keeps kinds and reads the rest
   back. Every stored fact of every discovered instruction must equal what
   a fresh [Decode.decode] of the binary's bytes gives, under the
   rewriter's roots and under the sweep. The first few mismatches are
   reported. *)

let fresh_decode (bin : Binfile.t) addr =
  let s =
    List.find
      (fun (s : Binfile.section) ->
        addr >= s.sec_addr && addr < s.sec_addr + Bytes.length s.sec_data)
      (Binfile.code_sections bin)
  in
  let off = addr - s.sec_addr and len = Bytes.length s.sec_data in
  let hi = if off + 4 <= len then Bytes.get_uint16_le s.sec_data (off + 2) else 0 in
  match Decode.decode ~lo:(Bytes.get_uint16_le s.sec_data off) ~hi with
  | Decode.Ok (inst, size) -> Some { Disasm.addr; inst; size }
  | Decode.Illegal _ -> None

let facts_failures ~name ~roots (bin : Binfile.t) dis =
  let cfg = Cfg.of_disasm dis in
  let bad = ref [] in
  let check what ok addr =
    if (not ok) && List.length !bad < 8 then
      bad := Printf.sprintf "%s %s %x: %s" name roots addr what :: !bad
  in
  let listed = Array.of_list (Disasm.to_list dis) in
  check "to_list length" (Array.length listed = Disasm.count dis) 0;
  Array.iteri
    (fun k (i : Disasm.insn) ->
      (match fresh_decode bin i.addr with
      | Some d -> check "decode" (d.size = i.size && Inst.equal d.inst i.inst) i.addr
      | None -> check "decode" false i.addr);
      check "find" (Disasm.find dis i.addr = Some i) i.addr;
      check "position" (Cfg.position cfg i.addr = k) i.addr;
      let ci = Cfg.insn_at cfg k in
      check "insn_at" (ci.addr = i.addr && ci.size = i.size && Inst.equal ci.inst i.inst)
        i.addr;
      check "flow_at" (Cfg.flow_at cfg k = Disasm.flow_of ci) i.addr;
      check "kind_at" (Cfg.kind_at cfg k = Disasm.kind_of ci) i.addr;
      check "ext_at" (Cfg.ext_at cfg k = Ext.required ci.inst) i.addr;
      check "uses_at" (Cfg.uses_at cfg k = Inst.uses_mask ci.inst) i.addr;
      check "defs_at" (Cfg.defs_at cfg k = Inst.defs_mask ci.inst) i.addr;
      check "Liveness.uses_at" (Liveness.uses_at cfg k = Liveness.insn_uses ci) i.addr;
      check "Liveness.defs_at" (Liveness.defs_at cfg k = Liveness.insn_defs ci) i.addr)
    listed;
  let k = ref 0 in
  Disasm.iter_facts dis (fun ~addr ~size ~kind ~target ~ext ~uses ~defs ->
      let i = listed.(!k) in
      incr k;
      let target_ok =
        match Disasm.flow_of i with
        | Disasm.Branch a | Disasm.Jump a | Disasm.Call a -> a = target
        | _ -> true
      in
      check "iter_facts"
        (addr = i.addr && size = i.size && kind = Disasm.kind_of i && target_ok
         && ext = Ext.required i.inst && uses = Inst.uses_mask i.inst
         && defs = Inst.defs_mask i.inst)
        addr);
  List.rev !bad

let test_facts_match_decode () =
  let failures =
    List.concat_map
      (fun (pr : Specgen.profile) ->
        let bin = Specgen.build pr in
        facts_failures ~name:pr.sp_name ~roots:"symbols" bin (Disasm.of_binfile bin)
        @ facts_failures ~name:pr.sp_name ~roots:"sweep" bin
            (Disasm.of_binfile_at bin ~roots:(sweep_roots bin)))
      all_profiles
  in
  if failures <> [] then
    Alcotest.failf "stored facts differ from a fresh decode:\n%s"
      (String.concat "\n" failures)

(* --- demand-driven liveness against an eager oracle ------------------------

   A [Liveness.t] solves a block's forward closure on the first query that
   lands in it. Its answers must equal a plain whole-CFG fixpoint whatever
   order the queries come in: here a seeded shuffle of every query, and a
   random subset of live-ins queried before all the rest in address order. *)

let abi_return_live =
  Regmask.of_list ([ Reg.a0; Reg.a1; Reg.sp; Reg.gp; Reg.tp; Reg.ra ] @ Reg.callee_saved)

(* Every block's live-out and every insn's live-in, keyed by address. *)
let eager_liveness cfg =
  let blocks = Array.of_list (Cfg.blocks cfg) in
  let nb = Array.length blocks in
  let index = Hashtbl.create nb in
  Array.iteri (fun k (b : Cfg.block) -> Hashtbl.replace index b.b_addr k) blocks;
  let block_in = Array.make nb 0 and block_out = Array.make nb 0 in
  let step (i : Disasm.insn) live =
    Regmask.union (Liveness.insn_uses i) (Regmask.diff live (Liveness.insn_defs i))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = nb - 1 downto 0 do
      block_out.(k) <-
        List.fold_left
          (fun acc -> function
            | Cfg.Sblock a -> Regmask.union acc block_in.(Hashtbl.find index a)
            | Cfg.Sunknown -> Regmask.all
            | Cfg.Sreturn -> Regmask.union acc abi_return_live)
          Regmask.empty blocks.(k).b_succs;
      let inn = List.fold_right step blocks.(k).b_insns block_out.(k) in
      if inn <> block_in.(k) then begin
        block_in.(k) <- inn;
        changed := true
      end
    done
  done;
  let live_in = Hashtbl.create (4 * nb) and live_out = Hashtbl.create nb in
  Array.iteri
    (fun k (b : Cfg.block) ->
      Hashtbl.replace live_out b.b_addr block_out.(k);
      List.fold_right
        (fun (i : Disasm.insn) live ->
          let live = step i live in
          Hashtbl.replace live_in i.addr live;
          live)
        b.b_insns block_out.(k)
      |> ignore)
    blocks;
  (live_in, live_out)

let dead_candidates =
  Regmask.of_list
    (Reg.temporaries
    @ [ Reg.ra; Reg.a0; Reg.a1; Reg.a2; Reg.a3; Reg.a4; Reg.a5; Reg.a6; Reg.a7; Reg.s8;
        Reg.s9; Reg.s10; Reg.s11 ])

(* [At a] asks for the live-in and the dead registers before the insn. *)
type query = Out of int | At of int

let check_query live (oracle_in, oracle_out) q =
  match q with
  | Out a ->
      let want = Hashtbl.find oracle_out a and got = Liveness.live_out live a in
      if want = got then None
      else Some (Printf.sprintf "live_out %x = %x, want %x" a got want)
  | At a ->
      let want = Hashtbl.find oracle_in a in
      let got = Option.value ~default:(-1) (Liveness.live_in_at live a) in
      let dead = Regmask.of_list (Liveness.dead_regs_at live a) in
      if want <> got then Some (Printf.sprintf "live_in_at %x = %x, want %x" a got want)
      else if dead <> Regmask.diff dead_candidates want then
        Some (Printf.sprintf "dead_regs_at %x = %x with live-in %x" a dead want)
      else None

let shuffle rng a =
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- x
  done

(* The first failing query of each order, as "seed profile roots order: ..." *)
let demand_failures ~seed ~name ~roots dis =
  let oracle = eager_liveness (Cfg.of_disasm dis) in
  let queries = ref [] in
  List.iter
    (fun (b : Cfg.block) ->
      queries := Out b.b_addr :: !queries;
      List.iter (fun (i : Disasm.insn) -> queries := At i.addr :: !queries) b.b_insns)
    (Cfg.blocks (Cfg.of_disasm dis));
  let in_order = Array.of_list (List.rev !queries) in
  let rng = Random.State.make [| seed |] in
  let first_failure live qs = Array.find_map (check_query live oracle) qs in
  let shuffled = Array.copy in_order in
  shuffle rng shuffled;
  let subset_first =
    let live = Liveness.compute (Cfg.of_disasm dis) in
    Array.iter
      (function
        | At a when Random.State.int rng 8 = 0 -> ignore (Liveness.live_in_at live a)
        | Out _ | At _ -> ())
      in_order;
    first_failure live in_order
  in
  List.filter_map
    (fun (order, failure) ->
      Option.map (Printf.sprintf "seed %d %s %s %s: %s" seed name roots order) failure)
    [ ("shuffled", first_failure (Liveness.compute (Cfg.of_disasm dis)) shuffled);
      ("subset first", subset_first) ]

let test_demand_matches_eager () =
  let failures =
    List.concat
      (List.mapi
         (fun k (pr : Specgen.profile) ->
           let bin = Specgen.build pr in
           demand_failures ~seed:(2 * k) ~name:pr.sp_name ~roots:"symbols" (Disasm.of_binfile bin)
           @ demand_failures ~seed:((2 * k) + 1) ~name:pr.sp_name ~roots:"sweep"
               (Disasm.of_binfile_at bin ~roots:(sweep_roots bin)))
         all_profiles)
  in
  if failures <> [] then
    Alcotest.failf "demand-solved liveness differs from the eager fixpoint:\n%s"
      (String.concat "\n" failures)

(* --- exact allocation of the cold rewrite ------------------------------------

   What a cold deploy request pays before its first run: disassembly, CFG and
   liveness, then the CHBP rewrite (which solves the liveness its sites ask
   for), over every Specgen profile. [Gc.minor_words ()] is exact, so the
   budgets are the recorded words plus 2%. The rewrite read 28,704,934
   words before batches got fast paths, and 23,943,811 while a batch
   without one specialized its templates on an in-batch vsetvli behind
   entry checks; building labels with [Printf] instead of string
   concatenation would add about 2.8 M, and picking scratch registers
   through list filters instead of register masks about 4.9 M. Analysis
   read 15,909,873 words and the rewrite 23,847,599 while disassembly kept
   an [insn] record per discovered instruction in a per-halfword array and
   the CFG copied those records into arrays of its own.

   Promotion is budgeted too: the words the rewrite leaves in the major
   heap, counted from an emptied minor heap to one emptied after it. They
   repeat for one build and environment but move with the major heap's
   state, whose slices empty the minor heap early (248,921 to 278,514
   over filtered and whole runs of this suite from five directories, some
   with a full major collection before each profile), so the budget
   allows 25% over the largest. Per-halfword [insn] records promoted about 7.6 M words. *)

let analysis_budget = 7_441_259 * 102 / 100
let rewrite_budget = 15_600_895 * 102 / 100
let promoted_budget = 278_514 * 125 / 100

(* Analysis and rewrite minor words, and words the rewrite promoted, summed
   over every profile. *)
let cold_rewrite_counts =
  lazy
    (let analysis = ref 0. and rewrite = ref 0. and promoted = ref 0. in
     List.iter
       (fun pr ->
         let bin = Specgen.build pr in
         let w0 = Gc.minor_words () in
         let live = Liveness.compute (Cfg.of_disasm (Disasm.of_binfile bin)) in
         let w1 = Gc.minor_words () in
         Gc.minor ();
         let _, p0, _ = Gc.counters () in
         let w2 = Gc.minor_words () in
         let r = Chbp.rewrite bin in
         let w3 = Gc.minor_words () in
         Gc.minor ();
         let _, p1, _ = Gc.counters () in
         ignore (Sys.opaque_identity (live, r));
         analysis := !analysis +. (w1 -. w0);
         rewrite := !rewrite +. (w3 -. w2);
         promoted := !promoted +. (p1 -. p0))
       all_profiles;
     (!analysis, !rewrite, !promoted))

let over name what words budget =
  if words > float budget then
    [ Printf.sprintf "%s %s %.0f words over %d profiles (budget %d)" name what words
        (List.length all_profiles) budget ]
  else []

let check_budgets = function
  | [] -> ()
  | errors -> Alcotest.fail (String.concat "; " errors)

let test_cold_rewrite_allocation () =
  let analysis, rewrite, _ = Lazy.force cold_rewrite_counts in
  check_budgets
    (over "Disasm.of_binfile + Cfg.of_disasm + Liveness.compute" "allocated" analysis
       analysis_budget
    @ over "Chbp.rewrite" "allocated" rewrite rewrite_budget)

let test_cold_rewrite_promotion () =
  let _, _, promoted = Lazy.force cold_rewrite_counts in
  check_budgets (over "Chbp.rewrite" "promoted" promoted promoted_budget)

let () =
  Alcotest.run "riscv_analysis"
    [ ("disasm",
       [ Alcotest.test_case "linear coverage" `Quick test_linear_coverage;
         Alcotest.test_case "branches and calls" `Quick test_follows_branches_and_calls;
         Alcotest.test_case "jump table gap" `Quick
           test_jump_table_targets_missed_without_symbols;
         Alcotest.test_case "flow classification" `Quick test_flow_classification ]);
      ("cfg",
       [ Alcotest.test_case "diamond" `Quick test_cfg_diamond;
         Alcotest.test_case "indirect unknown" `Quick test_cfg_indirect_is_unknown ]);
      ("liveness",
       [ Alcotest.test_case "dead register" `Quick test_liveness_simple_dead_reg;
         Alcotest.test_case "conservative at indirect" `Quick
           test_liveness_conservative_at_indirect;
         Alcotest.test_case "call clobbers" `Quick test_liveness_call_clobbers;
         Alcotest.test_case "loop" `Quick test_liveness_loop;
         Alcotest.test_case "return ABI mask" `Quick test_liveness_return_abi;
         Alcotest.test_case "avoid filter" `Quick test_liveness_avoid_filter;
         Alcotest.test_case "regmask" `Quick test_regmask ]);
      ("cfg-extra",
       [ Alcotest.test_case "splits at branch target" `Quick
           test_cfg_splits_at_branch_target;
         Alcotest.test_case "dot rendering" `Quick test_cfg_dot_render ]);
      ("golden",
       [ Alcotest.test_case "every profile matches its digests" `Quick
           test_golden_equivalence;
         Alcotest.test_case "demand liveness matches an eager fixpoint" `Quick
           test_demand_matches_eager;
         Alcotest.test_case "stored facts match a fresh decode" `Quick
           test_facts_match_decode ]);
      ("allocation",
       [ Alcotest.test_case "cold rewrite within its minor-word budget" `Quick
           test_cold_rewrite_allocation;
         Alcotest.test_case "cold rewrite within its promotion budget" `Quick
           test_cold_rewrite_promotion ]) ]
