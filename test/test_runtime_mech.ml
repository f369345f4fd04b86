(* Tests for the remaining runtime mechanisms of paper §4.3: signal delivery
   with gp restoration (Fig. 10) and the MMView process model (Fig. 9) with
   migration probes and vector-state transfer. *)

let base_isa = Ext.rv64gc
let ext_isa = Ext.rv64gcv

(* A vector program with a user signal handler: the handler increments a
   counter at gp+0x200 — a gp-relative access, so it only works if the
   kernel presented the correct gp. *)
let signal_program ~n =
  let a = Asm.create ~name:"signals" () in
  let v1 = Reg.v_of_int 1 and v2 = Reg.v_of_int 2 and v3 = Reg.v_of_int 3 in
  Asm.func a "_start";
  Asm.la a Reg.a0 "src1";
  Asm.la a Reg.a1 "src2";
  Asm.la a Reg.a2 "dst";
  Asm.li a Reg.a3 n;
  Asm.label a "vloop";
  Asm.inst a (Inst.Vsetvli (Reg.t0, Reg.a3, Inst.E64));
  Asm.branch_to a Inst.Beq Reg.t0 Reg.x0 "vdone";
  Asm.inst a (Inst.Vle (Inst.E64, v1, Reg.a0));
  Asm.inst a (Inst.Vle (Inst.E64, v2, Reg.a1));
  Asm.inst a (Inst.Vop_vv (Inst.Vadd, v3, v1, v2));
  Asm.inst a (Inst.Vse (Inst.E64, v3, Reg.a2));
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t1, Reg.t0, 3));
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.a0, Reg.t1));
  Asm.inst a (Inst.Op (Inst.Add, Reg.a1, Reg.a1, Reg.t1));
  Asm.inst a (Inst.Op (Inst.Add, Reg.a2, Reg.a2, Reg.t1));
  Asm.inst a (Inst.Op (Inst.Sub, Reg.a3, Reg.a3, Reg.t0));
  Asm.j a "vloop";
  Asm.label a "vdone";
  (* exit code = dst checksum + signal count (both mod 256) *)
  Asm.la a Reg.a0 "dst";
  Asm.li a Reg.a1 n;
  Asm.li a Reg.a2 0;
  Asm.label a "sloop";
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t0; rs1 = Reg.a0; imm = 0 });
  Asm.inst a (Inst.Op (Inst.Add, Reg.a2, Reg.a2, Reg.t0));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 8));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
  Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "sloop";
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t0; rs1 = Reg.gp; imm = 0x200 });
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.a2, Reg.t0));
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.a0, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  (* the user handler: counter at gp+0x200 += 1, then sigreturn (a7 = 139).
     It deliberately clobbers scratch registers the interrupted code does
     not expect to survive... none: a real handler must preserve what it
     uses, so it works on t-regs it saves through the kernel context. *)
  Asm.func a "sig_handler";
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t0; rs1 = Reg.gp; imm = 0x200 });
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, 1));
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t0; rs1 = Reg.gp; imm = 0x200 });
  Asm.li a Reg.a7 139;
  Asm.inst a Inst.Ecall;
  Asm.dlabel a "src1";
  for i = 1 to n do Asm.dword64 a (Int64.of_int i) done;
  Asm.dlabel a "src2";
  for i = 1 to n do Asm.dword64 a (Int64.of_int (2 * i)) done;
  Asm.dlabel a "dst";
  Asm.dspace a (8 * n);
  Asm.assemble a

let n = 12
let expected_sum = 3 * (n * (n + 1) / 2)

let test_signals_native_baseline () =
  (* without signals the program exits with the plain checksum *)
  let bin = signal_program ~n in
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:ext_isa () in
  Loader.init_machine m bin;
  match Machine.run ~fuel:1_000_000 m with
  | Machine.Exited c -> Alcotest.(check int) "baseline" (expected_sum land 255) c
  | _ -> Alcotest.fail "baseline run failed"

let test_signals_on_rewritten_binary () =
  let bin = signal_program ~n in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  (* measure the rewritten run length once, then spread signals inside it *)
  let total_retired =
    let probe_rt = Chimera_rt.create ctx in
    let m = Machine.create ~mem:(Chimera_rt.load probe_rt) ~isa:base_isa () in
    match Chimera_rt.run probe_rt ~fuel:5_000_000 m with
    | Machine.Exited _ -> Machine.retired m
    | _ -> Alcotest.fail "probe run failed"
  in
  let rt = Chimera_rt.create ctx in
  (* shower of signals across the whole run: some will land inside the
     translated code where gp was trampoline-clobbered *)
  let deliveries =
    List.init 40 (fun i -> 10 + (i * (total_retired - 100) / 40))
  in
  let sg = Signals.create rt ~handler_sym:"sig_handler" ~deliver_after:deliveries in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  (match Signals.run sg ~fuel:5_000_000 m with
  | Machine.Exited c ->
      Alcotest.(check int) "checksum + signal count"
        ((expected_sum + Signals.signals_delivered sg) land 255) c
  | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f)
  | Machine.Fuel_exhausted -> Alcotest.fail "fuel");
  Alcotest.(check int) "all signals delivered" (List.length deliveries)
    (Signals.signals_delivered sg);
  (* every handler invocation observed the ABI gp *)
  let gp = Int64.of_int (Chbp.gp_value ctx) in
  List.iter
    (fun observed -> Alcotest.(check int64) "handler gp" gp observed)
    (Signals.observed_gp sg)

let test_signals_hit_clobbered_gp () =
  (* dense delivery on a trampoline-heavy run must hit at least one moment
     where gp was overwritten — proving the restoration logic engages *)
  let bin = signal_program ~n in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let total_retired =
    let probe_rt = Chimera_rt.create ctx in
    let m = Machine.create ~mem:(Chimera_rt.load probe_rt) ~isa:base_isa () in
    match Chimera_rt.run probe_rt ~fuel:5_000_000 m with
    | Machine.Exited _ -> Machine.retired m
    | _ -> Alcotest.fail "probe run failed"
  in
  let rt = Chimera_rt.create ctx in
  (* spaced >= handler length so handlers never nest (a nested handler
     would legitimately lose a counter increment to the load-modify-store
     race, as on real hardware), and all before the program's last 10
     instructions: a signal after its final read of the counter would
     legitimately go uncounted in the exit code *)
  let deliveries =
    List.filter (fun k -> k < total_retired - 10) (List.init 100 (fun i -> 10 + (i * 31)))
  in
  let sg = Signals.create rt ~handler_sym:"sig_handler" ~deliver_after:deliveries in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  (match Signals.run sg ~fuel:5_000_000 m with
  | Machine.Exited c ->
      Alcotest.(check int) "result still correct"
        ((expected_sum + Signals.signals_delivered sg) land 255) c
  | _ -> Alcotest.fail "run failed");
  Alcotest.(check bool)
    (Printf.sprintf "gp restorations engaged (%d)" (Signals.gp_restorations sg))
    true
    (Signals.gp_restorations sg > 0)

let test_signals_none_scheduled () =
  (* an empty schedule must leave the run untouched *)
  let bin = signal_program ~n in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  let sg = Signals.create rt ~handler_sym:"sig_handler" ~deliver_after:[] in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  (match Signals.run sg ~fuel:5_000_000 m with
  | Machine.Exited c -> Alcotest.(check int) "plain result" (expected_sum land 255) c
  | _ -> Alcotest.fail "run failed");
  Alcotest.(check int) "no deliveries" 0 (Signals.signals_delivered sg);
  Alcotest.(check int) "no restorations" 0 (Signals.gp_restorations sg)

let test_signals_missing_handler_symbol () =
  let bin = signal_program ~n in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  match Signals.create rt ~handler_sym:"no_such_handler" ~deliver_after:[ 5 ] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown handler symbol must be rejected"

let test_signals_observed_gp_is_abi_value () =
  (* every gp the user handler observed must be the static ABI value,
     regardless of what the interrupted trampoline had in flight *)
  let bin = signal_program ~n in
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) bin in
  let rt = Chimera_rt.create ctx in
  let deliveries = List.init 40 (fun i -> 15 + (i * 37)) in
  let sg = Signals.create rt ~handler_sym:"sig_handler" ~deliver_after:deliveries in
  let m = Machine.create ~mem:(Chimera_rt.load rt) ~isa:base_isa () in
  (match Signals.run sg ~fuel:5_000_000 m with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "run failed");
  let abi_gp = Int64.of_int bin.Binfile.gp_value in
  Alcotest.(check bool) "some deliveries" true (Signals.signals_delivered sg > 0);
  List.iter
    (fun g -> Alcotest.(check int64) "handler saw ABI gp" abi_gp g)
    (Signals.observed_gp sg)

(* --- MMViews ------------------------------------------------------------- *)

let test_mmview_shared_data () =
  let bin = Programs.vecadd `Ext ~n:8 in
  let dep = Chimera_system.deploy bin ~cores:[ ext_isa; base_isa ] in
  let pv = Mmview.create dep in
  Mmview.start pv ~on:ext_isa;
  (* run to completion on the extension view *)
  (match Mmview.run pv ~fuel:1_000_000 with
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "ext view run failed");
  (* the dst array written through the extension view must be visible in
     the base view's memory (same physical pages) *)
  let ext_mem = Machine.mem (Mmview.machine pv) in
  ignore (Mmview.migrate pv ~to_:base_isa);
  let base_mem = Machine.mem (Mmview.machine pv) in
  Alcotest.(check bool) "distinct views" true (not (ext_mem == base_mem));
  let addr = Layout.data_base + (2 * 8 * 8) in
  Alcotest.(check int64) "data page shared" (Memory.peek_u64 ext_mem addr)
    (Memory.peek_u64 base_mem addr)

let test_mmview_code_differs_per_view () =
  let bin = Programs.vecadd `Ext ~n:8 in
  let dep = Chimera_system.deploy bin ~cores:[ ext_isa; base_isa ] in
  let pv = Mmview.create dep in
  Mmview.start pv ~on:ext_isa;
  let ext_mem = Machine.mem (Mmview.machine pv) in
  ignore (Mmview.migrate pv ~to_:base_isa);
  let base_mem = Machine.mem (Mmview.machine pv) in
  (* the site of the first vector instruction holds original code in the
     extension view and a trampoline in the base view *)
  let dis = Disasm.of_binfile bin in
  let site =
    List.find (fun i -> Ext.required i.Disasm.inst = Some Ext.V) (Disasm.to_list dis)
  in
  Alcotest.(check bool) "patched differently" true
    (Memory.peek_u32 ext_mem site.Disasm.addr <> Memory.peek_u32 base_mem site.Disasm.addr)

let test_mmview_migration_mid_task () =
  (* run the first half on the extension core, migrate, finish on base;
     the result must match a pure run *)
  let bin = Programs.vecadd `Ext ~n:32 in
  let expected =
    let mem = Loader.load bin in
    let m = Machine.create ~mem ~isa:ext_isa () in
    Loader.init_machine m bin;
    match Machine.run ~fuel:1_000_000 m with
    | Machine.Exited c -> c
    | _ -> Alcotest.fail "native"
  in
  let dep = Chimera_system.deploy bin ~cores:[ ext_isa; base_isa ] in
  let pv = Mmview.create dep in
  Mmview.start pv ~on:ext_isa;
  (* run a slice, then migrate (possibly mid-strip), then finish *)
  (match Mmview.run pv ~fuel:120 with
  | Machine.Fuel_exhausted -> ()
  | Machine.Exited _ -> Alcotest.fail "finished too early"
  | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f));
  ignore (Mmview.migrate pv ~to_:base_isa);
  Alcotest.(check bool) "switched" true (Ext.equal (Mmview.current_class pv) base_isa);
  (match Mmview.run pv ~fuel:5_000_000 with
  | Machine.Exited c -> Alcotest.(check int) "migrated result" expected c
  | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f)
  | Machine.Fuel_exhausted -> Alcotest.fail "fuel");
  Alcotest.(check int) "one migration" 1 (Mmview.migrations pv)

let test_mmview_vector_state_transfers () =
  (* fill v1 on the extension view, migrate, and check the register file
     arrived: both views report identical v1 bytes *)
  let bin = Programs.vecadd `Ext ~n:32 in
  let dep = Chimera_system.deploy bin ~cores:[ ext_isa; base_isa ] in
  let pv = Mmview.create dep in
  Mmview.start pv ~on:ext_isa;
  (* run far enough for the first strip's vle to complete *)
  (match Mmview.run pv ~fuel:40 with
  | Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "finished too early");
  let before = Bytes.copy (Machine.get_vreg (Mmview.machine pv) (Reg.v_of_int 1)) in
  Alcotest.(check bool) "v1 non-zero on the extension view" true
    (Bytes.exists (fun c -> c <> '\000') before);
  ignore (Mmview.migrate pv ~to_:base_isa);
  let after = Machine.get_vreg (Mmview.machine pv) (Reg.v_of_int 1) in
  Alcotest.(check bytes) "vector state transferred" before after

let test_mmview_migration_probes_defer () =
  (* migrate many times at random points during a downgraded run on the
     base view: a request landing inside target instructions must step to
     the exit first, and the final result must stay correct *)
  let bin = Programs.vecadd `Ext ~n:32 in
  let expected =
    let mem = Loader.load bin in
    let m = Machine.create ~mem ~isa:ext_isa () in
    Loader.init_machine m bin;
    match Machine.run ~fuel:1_000_000 m with
    | Machine.Exited c -> c
    | _ -> Alcotest.fail "native"
  in
  let dep = Chimera_system.deploy bin ~cores:[ base_isa; ext_isa ] in
  let pv = Mmview.create dep in
  Mmview.start pv ~on:base_isa;
  let deferred = ref 0 in
  let result = ref None in
  let flip = ref base_isa in
  while !result = None do
    (match Mmview.run pv ~fuel:41 with
    | Machine.Exited c -> result := Some c
    | Machine.Faulted f -> Alcotest.failf "fault: %s" (Fault.to_string f)
    | Machine.Fuel_exhausted ->
        flip := (if Ext.equal !flip base_isa then ext_isa else base_isa);
        deferred := !deferred + Mmview.migrate pv ~to_:!flip)
  done;
  Alcotest.(check (option int)) "result across migrations" (Some expected) !result;
  Alcotest.(check bool) "probes actually deferred some switches" true (!deferred > 0);
  Alcotest.(check bool) "several migrations" true (Mmview.migrations pv > 2)

let () =
  Alcotest.run "chimera_runtime_mechanisms"
    [ ("signals",
       [ Alcotest.test_case "native baseline" `Quick test_signals_native_baseline;
         Alcotest.test_case "signals on rewritten binary" `Quick
           test_signals_on_rewritten_binary;
         Alcotest.test_case "no schedule, no effect" `Quick
           test_signals_none_scheduled;
         Alcotest.test_case "missing handler rejected" `Quick
           test_signals_missing_handler_symbol;
         Alcotest.test_case "handler always sees ABI gp" `Quick
           test_signals_observed_gp_is_abi_value;
         Alcotest.test_case "gp restoration engages" `Quick
           test_signals_hit_clobbered_gp ]);
      ("mmview",
       [ Alcotest.test_case "shared data pages" `Quick test_mmview_shared_data;
         Alcotest.test_case "per-view code" `Quick test_mmview_code_differs_per_view;
         Alcotest.test_case "migration mid-task" `Quick test_mmview_migration_mid_task;
         Alcotest.test_case "vector state transfers" `Quick
           test_mmview_vector_state_transfers;
         Alcotest.test_case "migration probes defer" `Quick
           test_mmview_migration_probes_defer ]) ]
