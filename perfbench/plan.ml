(* Request lists: the inputs of every workload, drawn from the workload
   seed alone. The program under test only ever sees the binaries built
   from these descriptors. *)

type guest =
  | Spec of { profile : string; sp_seed : int; rounds : int; no_hidden : bool }
  | Matmul of int
  | Branchy of int
  | Indirecty of int
  | Fib of int

type workload = Deploy | Steady | Serve_mix

let workloads = [ ("deploy", Deploy); ("steady", Steady); ("serve-mix", Serve_mix) ]
let workload_of_string s = List.assoc_opt s workloads
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let guest_name = function
  | Spec { profile; sp_seed; _ } -> Printf.sprintf "%s#%d" profile sp_seed
  | Matmul n -> Printf.sprintf "matmul%d" n
  | Branchy r -> Printf.sprintf "branchy%d" r
  | Indirecty r -> Printf.sprintf "indirecty%d" r
  | Fib r -> Printf.sprintf "fib%d" r

(* The tenant a guest is served as: one per guest kind, so per-tenant
   stats group replicas of the same program. *)
let tenant = function
  | Spec { profile; _ } -> profile
  | Matmul _ -> "matmul"
  | Branchy _ -> "branchy"
  | Indirecty _ -> "indirecty"
  | Fib _ -> "fib"

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let all_profiles () =
  List.map (fun p -> p.Specgen.sp_name) (Specgen.spec_profiles @ Specgen.realworld_profiles)

(* A short driver keeps a deploy request dominated by the cold rewrite. *)
let deploy_rounds = 8

(* The warm-guest set of steady and serve-mix. Steady sizes its guests to
   run long; serve-mix runs the same programs smaller, so that scheduling
   rather than one guest sets its pace. The seed jitters the loop guests'
   lengths by up to 1%. The Specgen pair brings victim-entry fault
   recovery. Their seeds are fixed, so every run meets the same runtime
   behaviour: on steady, omnetpp_r rewrites lazily (and so never finds its
   plan warm) while perlbench_r does not; on serve-mix neither does,
   because lazy rewriting assembles through a buffer that all domains
   share. *)
let warm_guests w st =
  let big = w = Steady in
  let size x =
    let x = if big then x else x / 8 in
    x + (x * (Random.State.int st 201 - 100) / 10_000)
  in
  let spec profile sp_seed rounds =
    Spec { profile; sp_seed; rounds = (if big then rounds else rounds / 8); no_hidden = not big }
  in
  [ Matmul (if big then 48 else 24);
    Branchy (size 160_000);
    Indirecty (size 160_000);
    Fib (size 16_000);
    spec "perlbench_r" (if big then 101 else 3) 128;
    spec "omnetpp_r" (if big then 105 else 3) 128 ]

(* Guests of [warm_guests] expected to rewrite lazily at run time. *)
let expects_lazy = function
  | Spec { profile = "omnetpp_r"; no_hidden = false; _ } -> true
  | _ -> false

(* Each pass holds every guest of the workload's set the same number of
   times in a seeded order, so every pass does the same work and the mix
   never depends on timing. Deploy draws a fresh [sp_seed] for every
   request, so no two requests of a run share a digest. *)
let requests w ~seed ~passes =
  let st = Random.State.make [| 0x5eed; seed |] in
  let shuffled l =
    let a = Array.of_list l in
    shuffle st a;
    Array.to_list a
  in
  match w with
  | Deploy ->
      List.init passes (fun p ->
          shuffled
            (List.mapi
               (fun i profile ->
                 let sp_seed = ((((seed land 0xffff) * 64) + p) * 64 + i) * 2 + 1 in
                 Spec { profile; sp_seed; rounds = deploy_rounds; no_hidden = false })
               (all_profiles ())))
  | Steady | Serve_mix ->
      let set = warm_guests w st in
      let reps = if w = Steady then 4 else 40 in
      List.init passes (fun _ -> shuffled (List.concat (List.init reps (fun _ -> set))))

(* The unmeasured warm pass run in set-up: every warm guest once, or for
   deploy a fixed handful of small profiles under seeds no measured
   request uses, so set-up does the same work whatever the seed. *)
let warm_pass w ~seed =
  match w with
  | Deploy ->
      List.mapi
        (fun i profile -> Spec { profile; sp_seed = 2 * i; rounds = deploy_rounds; no_hidden = false })
        [ "perlbench_r"; "omnetpp_r"; "imagick_r"; "xalancbmk_r"; "Git"; "Python" ]
  | Steady | Serve_mix -> List.sort_uniq compare (List.concat (requests w ~seed ~passes:1))

let build = function
  | Spec { profile; sp_seed; rounds; no_hidden } ->
      let p = Specgen.find profile in
      Specgen.build
        { p with Specgen.sp_seed; sp_rounds = rounds;
                 sp_hidden = (if no_hidden then 0.0 else p.Specgen.sp_hidden) }
  | Matmul n -> Programs.matmul `Ext ~n
  | Branchy rounds -> Programs.branchy ~rounds ()
  | Indirecty rounds -> Programs.indirecty ~rounds ()
  | Fib rounds -> Programs.fibonacci ~rounds ()
