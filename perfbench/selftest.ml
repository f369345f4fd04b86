(* The benchmark's own arithmetic: the tail-percentile rule, span
   self-time subtraction and seeded request lists. *)

open Perfbench

let check_float = Alcotest.(check (float 1e-9))

let percentile_rule () =
  (* 100 samples: p90 is the 90th smallest, with exactly 10 beyond it. *)
  Alcotest.(check int) "rank p90 of 100" 90 (Stats.rank ~n:100 ~permille:900);
  Alcotest.(check int) "beyond p90 of 100" 10 (Stats.beyond ~n:100 ~permille:900);
  Alcotest.(check bool) "p90 of 100 qualifies" true (Stats.qualifies ~n:100 ~permille:900);
  Alcotest.(check bool) "p90 of 99 does not" false (Stats.qualifies ~n:99 ~permille:900);
  Alcotest.(check (option int)) "highest tail of 1000" (Some 990) (Stats.highest_tail 1000);
  Alcotest.(check (option int)) "highest tail of 104" (Some 900) (Stats.highest_tail 104);
  Alcotest.(check (option int)) "highest tail of 15" None (Stats.highest_tail 15);
  let xs = List.init 100 (fun i -> float (100 - i)) in
  check_float "p90 value" 90. (Stats.percentile xs ~permille:900);
  check_float "p50 value" 50. (Stats.percentile xs ~permille:500);
  check_float "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let self_time () =
  let sp = Spans.create () in
  let root = Spans.add sp ~parent:(-1) ~req:0 ~name:"request" 0. 10. in
  let rw = Spans.add sp ~parent:root ~req:0 ~name:"rewriter" 0. 6. in
  ignore (Spans.add sp ~parent:rw ~req:0 ~name:"analysis.cfg" 1. 3.);
  (* overlapping children are counted once, and a child sticking out of
     its parent is clipped to it *)
  ignore (Spans.add sp ~parent:rw ~req:0 ~name:"analysis.disasm" 2. 4.);
  ignore (Spans.add sp ~parent:root ~req:0 ~name:"exec" 7. 12.);
  let spans = Spans.spans sp in
  let self name =
    List.assoc name (List.map (fun ((s : Spans.span), t) -> (s.name, t)) (Spans.self_times spans))
  in
  check_float "root self = gap" 1. (self "request");
  check_float "rewriter self" 3. (self "rewriter");
  check_float "cfg self" 2. (self "analysis.cfg");
  let layers = Spans.layer_self spans in
  check_float "analysis layer" 4. (Hashtbl.find layers "analysis");
  check_float "exec layer" 5. (Hashtbl.find layers "exec");
  Alcotest.(check bool) "roots excluded" false (Hashtbl.mem layers "request")

let seeded_lists () =
  List.iter
    (fun (name, w) ->
      let a = Plan.requests w ~seed:7 ~passes:3 and b = Plan.requests w ~seed:7 ~passes:3 in
      Alcotest.(check bool) (name ^ ": same seed, same list") true (a = b);
      Alcotest.(check bool) (name ^ ": other seed, other list") false (a = Plan.requests w ~seed:8 ~passes:3);
      (* every pass holds the same multiset of guest kinds *)
      let kinds p = List.sort compare (List.map Plan.tenant p) in
      List.iter (fun p -> Alcotest.(check bool) (name ^ ": same mix") true (kinds p = kinds (List.hd a))) a)
    Plan.workloads;
  let deploy = List.concat (Plan.requests Plan.Deploy ~seed:7 ~passes:4) in
  Alcotest.(check int) "deploy digests distinct" (List.length deploy)
    (List.length (List.sort_uniq compare deploy))

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "tail percentile rule" `Quick percentile_rule;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "seeded request lists" `Quick seeded_lists ] ) ]
