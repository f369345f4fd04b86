let m_faults_recovered =
  Metrics.counter ~help:"Faults redirected via the fault table"
    "chimera_faults_recovered_total"

let m_traps =
  Metrics.counter ~help:"Ebreak traps redirected via the trap table"
    "chimera_traps_total"

type t = {
  mutable ctx : Chbp.t;  (* a shared one is copied at the first lazy rewrite *)
  bin : Binfile.t;  (* rewritten *)
  costs : Costs.t;
  counters : Counters.t;
  mutable views : Memory.t list;
}

let create ?(costs = Costs.default) ctx =
  { ctx;
    bin = Chbp.result ctx;
    costs;
    counters = Counters.create ();
    views = [] }

let load t =
  let mem = Loader.load t.bin in
  t.views <- mem :: t.views;
  mem

let counters t = t.counters
let rewritten t = t.bin
let chbp t = t.ctx

(* A code patch goes into the memory's own log ([Memory.patch_code]):
   every machine running that memory invalidates the range before it next
   executes, so the runtime keeps no machine. *)
let apply_patch mem = function
  | Chbp.Patch_code { addr; bytes } -> Memory.patch_code mem addr bytes
  | Chbp.Patch_section { addr; bytes } ->
      (* map any missing pages, fill, and mark executable *)
      let len = Bytes.length bytes in
      let page = 4096 in
      let first = addr / page and last = (addr + len - 1) / page in
      for p = first to last do
        if not (Memory.is_mapped mem (p * page)) then
          Memory.map mem ~addr:(p * page) ~len:page Memory.perm_rx
      done;
      Memory.poke_bytes mem addr bytes;
      Memory.set_perm mem ~addr ~len Memory.perm_rx

(* The original (pre-rewrite) image, for deciding whether a faulting address
   held a recognizable extension instruction. *)
let original_inst t addr =
  let orig = Chbp.original t.ctx in
  let sec =
    List.find_opt (fun s -> Binfile.in_section s addr) (Binfile.code_sections orig)
  in
  match sec with
  | None -> None
  | Some s ->
      let off = addr - s.Binfile.sec_addr in
      let len = Bytes.length s.Binfile.sec_data in
      if off + 2 > len then None
      else
        let lo = Bytes.get_uint16_le s.Binfile.sec_data off in
        let hi =
          if off + 4 <= len then Bytes.get_uint16_le s.Binfile.sec_data (off + 2) else 0
        in
        (match Decode.decode ~lo ~hi with
        | Decode.Ok (inst, _) -> Some inst
        | Decode.Illegal _ -> None)

let lazy_rewrite t m pc =
  match original_inst t pc with
  | Some inst when Ext.required inst <> None && not (Ext.supports (Machine.isa m) inst)
    ->
      Counters.lazy_at t.counters ~site:pc;
      Machine.charge m t.costs.Costs.lazy_rewrite;
      (* a shared context is never mutated: rewrite a private copy *)
      if Chbp.is_shared t.ctx then t.ctx <- Chbp.copy t.ctx;
      let patches = Chbp.extend t.ctx ~root:pc in
      if !Obs.enabled then
        Obs.emit (Obs.Lazy_discovered { root = pc; patches = List.length patches });
      List.iter (fun mem -> List.iter (apply_patch mem) patches) t.views;
      (* the site at pc is now a trampoline (or trap); re-execute it *)
      if patches = [] then None else Some pc
  | Some _ | None -> None

(* The tables are read from [t.ctx] when a fault or trap arrives, never
   captured: a lazy rewrite extends them, and replaces a shared context
   with a private copy, while the handlers are live. *)
let handlers t =
  let gp_value = Chbp.gp_value t.ctx in
  let recover m ~site ~cause redirect =
    Counters.fault_at t.counters ~site;
    if !Metrics.enabled then Metrics.incr m_faults_recovered;
    if !Obs.enabled then Obs.emit (Obs.Fault_recovered { site; redirect; cause });
    (match Machine.profile m with
    | Some p -> Profile.note_recovered p
    | None -> ());
    Machine.charge m t.costs.Costs.fault_recovery;
    Machine.set_reg m Reg.gp (Int64.of_int gp_value);
    Machine.Resume redirect
  in
  let on_fault m fault =
    let table = Chbp.fault_table t.ctx in
    match fault with
    | Fault.Segfault { access = Fault.Execute; _ } -> (
        (* potential partial SMILE execution: the jalr stored pc+4 in gp *)
        let site = Int64.to_int (Machine.get_reg m Reg.gp) - 4 in
        match Fault_table.find table site with
        | Some redirect -> recover m ~site ~cause:"sigsegv" redirect
        | None -> (
            (* general-register SMILE (paper Fig. 5): find the site whose
               link register carries its jalr's return address *)
            match
              List.find_opt
                (fun (jaddr, r) ->
                  Int64.equal (Machine.get_reg m r) (Int64.of_int (jaddr + 4)))
                (Chbp.greg_sites t.ctx)
            with
            | Some (jaddr, r) -> (
                match Fault_table.find table jaddr with
                | Some redirect ->
                    Counters.fault_at t.counters ~site:jaddr;
                    if !Metrics.enabled then Metrics.incr m_faults_recovered;
                    if !Obs.enabled then
                      Obs.emit
                        (Obs.Fault_recovered
                           { site = jaddr; redirect; cause = "sigsegv" });
                    (match Machine.profile m with
                    | Some p -> Profile.note_recovered p
                    | None -> ());
                    Machine.charge m t.costs.Costs.fault_recovery;
                    (* restore the register to the value the preceding lui
                       established (the only statically known valid value) *)
                    (match original_inst t (jaddr - 4) with
                    | Some (Inst.Lui (_, hi)) ->
                        Machine.set_reg m r (Int64.of_int (hi lsl 12))
                    | Some _ | None -> ());
                    Machine.Resume redirect
                | None -> Machine.Stop (Machine.Faulted fault))
            | None -> Machine.Stop (Machine.Faulted fault)))
    | Fault.Illegal_instruction { pc; _ } -> (
        match Fault_table.find table pc with
        | Some redirect -> recover m ~site:pc ~cause:"sigill" redirect
        | None -> (
            match lazy_rewrite t m pc with
            | Some resume -> Machine.Resume resume
            | None -> Machine.Stop (Machine.Faulted fault)))
    | Fault.Segfault _ | Fault.Misaligned_fetch _ ->
        Machine.Stop (Machine.Faulted fault)
  in
  let on_ebreak m ~pc ~size:_ =
    match Fault_table.find (Chbp.trap_table t.ctx) pc with
    | Some target ->
        Counters.trap_at t.counters ~site:pc;
        if !Metrics.enabled then Metrics.incr m_traps;
        if !Obs.enabled then Obs.emit (Obs.Trap_taken { site = pc; target });
        (match Machine.profile m with
        | Some p -> Profile.note_trap p
        | None -> ());
        Machine.charge m t.costs.Costs.trap;
        Machine.Resume target
    | None ->
        Machine.Stop
          (Machine.Faulted (Fault.Illegal_instruction { pc; reason = "program ebreak" }))
  in
  { Machine.default_handlers with on_fault; on_ebreak }

let run t ?isa ~fuel m =
  let mem = match t.views with [] -> load t | mem :: _ -> mem in
  Machine.switch_view m mem;
  (match isa with Some i -> Machine.set_isa m i | None -> ());
  Loader.init_machine m t.bin;
  Machine.run ~handlers:(handlers t) ~fuel m
