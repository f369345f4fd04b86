let sum f snaps = List.fold_left (fun acc s -> acc + f s) 0 snaps

let pct part whole =
  if whole = 0 then "0.0" else Printf.sprintf "%.1f" (100.0 *. float part /. float whole)

(* Annotate up to body+1 instructions starting at the block entry (body plus
   terminator); stops early where the disassembler has no coverage (code
   discovered only at runtime). *)
let annotate d entry body =
  let rec go addr n acc =
    if n <= 0 then List.rev acc
    else
      match Disasm.find d addr with
      | None -> List.rev acc
      | Some i ->
          go (addr + i.Disasm.size) (n - 1)
            ([ ""; Printf.sprintf "0x%x:" i.Disasm.addr;
               Format.asprintf "%a" Inst.pp i.Disasm.inst ]
            :: acc)
  in
  go entry (body + 1) []

type ic_note = {
  icn_site : int;
  icn_state : string;
  icn_targets : int;
  icn_hits : int;
  icn_misses : int;
}

let render ?(top = 20) ?disasm ?ics ?totals oc snaps =
  Report.with_output oc (fun () ->
      let retired = sum (fun s -> s.Profile.s_retired) snaps in
      let hits = sum (fun s -> s.Profile.s_hits) snaps in
      let penalty = sum (fun s -> s.Profile.s_penalty) snaps in
      Report.heading "Profile summary";
      Report.note (Printf.sprintf "blocks            %d" (List.length snaps));
      Report.note (Printf.sprintf "dispatches        %d" hits);
      Report.note (Printf.sprintf "retired           %d" retired);
      Report.note (Printf.sprintf "penalty cycles    %d" penalty);
      Report.note
        (Printf.sprintf "tlb misses        %d" (sum (fun s -> s.Profile.s_tlb) snaps));
      Report.note
        (Printf.sprintf "icache misses     %d"
           (sum (fun s -> s.Profile.s_icache) snaps));
      Report.note
        (Printf.sprintf "faults            %d"
           (sum (fun s -> s.Profile.s_faults) snaps));
      Report.note
        (Printf.sprintf "recovered         %d"
           (sum (fun s -> s.Profile.s_recovered) snaps));
      Report.note
        (Printf.sprintf "traps             %d" (sum (fun s -> s.Profile.s_traps) snaps));
      (match totals with
      | None -> ()
      | Some (t : Obs.Agg.totals) ->
          Report.note
            (Printf.sprintf "ic hits/misses    %d/%d" t.Obs.Agg.ic_hits
               t.Obs.Agg.ic_misses);
          Report.note
            (Printf.sprintf "ic mega sites     %d" t.Obs.Agg.ic_megamorphic));
      let hot =
        List.stable_sort
          (fun a b -> compare b.Profile.s_retired a.Profile.s_retired)
          snaps
      in
      let hot = List.filteri (fun i _ -> i < top) hot in
      Report.table
        ~title:(Printf.sprintf "Hot blocks (top %d by retired)" (List.length hot))
        ~header:
          [ "entry"; "body"; "hits"; "retired"; "%"; "penalty"; "tlb"; "ic";
            "flt"; "rec"; "trap" ]
        ~rows:
          (List.map
             (fun s ->
               [ Printf.sprintf "0x%x" s.Profile.s_entry;
                 string_of_int s.Profile.s_body;
                 string_of_int s.Profile.s_hits;
                 string_of_int s.Profile.s_retired;
                 pct s.Profile.s_retired retired;
                 string_of_int s.Profile.s_penalty;
                 string_of_int s.Profile.s_tlb;
                 string_of_int s.Profile.s_icache;
                 string_of_int s.Profile.s_faults;
                 string_of_int s.Profile.s_recovered;
                 string_of_int s.Profile.s_traps ])
             hot);
      (match ics with
      | None | Some [] -> ()
      | Some l ->
          let l =
            List.stable_sort (fun a b -> compare b.icn_hits a.icn_hits) l
          in
          let l = List.filteri (fun i _ -> i < top) l in
          Report.table
            ~title:(Printf.sprintf "Inline caches (top %d by hits)" (List.length l))
            ~header:[ "site"; "state"; "targets"; "hits"; "misses" ]
            ~rows:
              (List.map
                 (fun i ->
                   [ Printf.sprintf "0x%x" i.icn_site;
                     i.icn_state;
                     string_of_int i.icn_targets;
                     string_of_int i.icn_hits;
                     string_of_int i.icn_misses ])
                 l));
      Report.histogram ~title:"Instruction mix (exact, dynamic)"
        ~rows:
          [ ("loads", sum (fun s -> s.Profile.s_loads) snaps);
            ("stores", sum (fun s -> s.Profile.s_stores) snaps);
            ("branches", sum (fun s -> s.Profile.s_branches) snaps);
            ("alu", sum (fun s -> s.Profile.s_alu) snaps);
            ("vector", sum (fun s -> s.Profile.s_vector) snaps);
            ("compressed", sum (fun s -> s.Profile.s_compressed) snaps) ];
      match disasm with
      | None -> ()
      | Some d ->
          Report.heading "Hot-block disassembly";
          List.iteri
            (fun i s ->
              if i < 5 then begin
                Report.note
                  (Printf.sprintf "block 0x%x  (%s%% of retired)"
                     s.Profile.s_entry (pct s.Profile.s_retired retired));
                match annotate d s.Profile.s_entry s.Profile.s_body with
                | [] -> Report.note "  (no static coverage — runtime-discovered code)"
                | rows -> Report.print_aligned rows
              end)
            hot)
