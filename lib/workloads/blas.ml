type kernel = Dgemm | Sgemm | Dgemv | Sgemv

let kernel_name = function
  | Dgemm -> "dgemm" | Sgemm -> "sgemm" | Dgemv -> "dgemv" | Sgemv -> "sgemv"

let kernels = [ Dgemm; Sgemm; Dgemv; Sgemv ]

type system = Fam_ext | Fam_base | Melf | Chimera

let system_name = function
  | Fam_ext -> "FAM Ext." | Fam_base -> "FAM Base" | Melf -> "MELF"
  | Chimera -> "Chimera"

let systems = [ Fam_ext; Fam_base; Melf; Chimera ]

let sew_of = function Dgemm | Dgemv -> Inst.E64 | Sgemm | Sgemv -> Inst.E32
let matrix_matrix = function Dgemm | Sgemm -> true | Dgemv | Sgemv -> false

(* Synchronization model: matrix–vector kernels join once (linear in the
   thread count); matrix–matrix kernels synchronize per panel and their
   barrier traffic grows quadratically — the effect behind the paper's
   Fig. 14e scalability cliff (sgemm speedup collapsing from 16 to 64
   threads). The quadratic coefficient is tied to the problem size so the
   cliff lands where contention overtakes per-core work. *)
let sync_cost kernel ~total_vec_work ~threads =
  if matrix_matrix kernel then total_vec_work * threads * threads / 24576
  else 180 * threads

type chunk_cost = { cc_vec : int; cc_scal : int; cc_chim : int }

type setup = {
  s_kernel : kernel;
  s_n : int;
  s_threads : int list;
  s_costs : (int, chunk_cost) Hashtbl.t;  (* distinct row-count -> costs *)
}

let chunk_sizes ~n ~threads =
  List.init threads (fun i ->
      let base = n / threads and extra = n mod threads in
      if i < extra then base + 1 else base)
  |> List.filter (fun r -> r > 0)

let build kernel variant ~n ~rows =
  let sew = sew_of kernel in
  let name = Printf.sprintf "%s-%d" (kernel_name kernel) (snd rows - fst rows) in
  if matrix_matrix kernel then Programs.gemm ~name variant ~sew ~n ~rows
  else Programs.gemv ~name ~rows variant ~sew ~n

let measure_chunk ?engine kernel ~n ~rows_count =
  let rows = (0, rows_count) in
  let vec_bin = build kernel `Ext ~n ~rows in
  let scal_bin = build kernel `Base ~n ~rows in
  let vec = Measure.native ?engine vec_bin ~isa:Ext.rv64gcv in
  let scal = Measure.native ?engine scal_bin ~isa:Ext.rv64gc in
  if vec.Measure.exit_code <> scal.Measure.exit_code then
    failwith
      (Printf.sprintf "Blas: %s variants disagree (%d vs %d)" (kernel_name kernel)
         vec.Measure.exit_code scal.Measure.exit_code);
  let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) vec_bin in
  let chim, _ = Measure.chimera ?engine ctx ~isa:Ext.rv64gc in
  ignore (Measure.check_exit ~expected:vec.Measure.exit_code chim);
  { cc_vec = vec.Measure.cycles;
    cc_scal = scal.Measure.cycles;
    cc_chim = chim.Measure.cycles }

(* OpenBLAS-style dynamic scheduling granularity: 4 blocks per thread *)
let blocks_per_thread = 6

let seq_run_all fs = List.iter (fun f -> f ()) fs

let prepare ?engine ?(n = 48) ?(run_all = seq_run_all) kernel ~threads =
  let rows =
    List.concat_map
      (fun t -> chunk_sizes ~n ~threads:(blocks_per_thread * t))
      threads
    |> List.sort_uniq compare
  in
  (* measure each distinct chunk size independently (possibly across
     domains); the Hashtbl is filled afterwards in the calling domain. *)
  let measured = List.map (fun r -> (r, ref None)) rows in
  run_all
    (List.map
       (fun (r, slot) -> fun () -> slot := Some (measure_chunk ?engine kernel ~n ~rows_count:r))
       measured);
  let costs = Hashtbl.create 8 in
  List.iter (fun (r, slot) -> Hashtbl.replace costs r (Option.get !slot)) measured;
  { s_kernel = kernel; s_n = n; s_threads = threads; s_costs = costs }

let chunk_cost setup r = Hashtbl.find setup.s_costs r

(* Dynamic block scheduling: blocks are handed out on demand, so slower
   cores simply process fewer of them. Under FAM Ext only the T/2 extension
   cores can execute the vector binary; the base cores sit idle. *)
let latency setup system ~threads =
  let sizes = chunk_sizes ~n:setup.s_n ~threads:(blocks_per_thread * threads) in
  let total_vec_work =
    List.fold_left (fun acc r -> acc + (chunk_cost setup r).cc_vec) 0 sizes
  in
  let sync = sync_cost setup.s_kernel ~total_vec_work ~threads in
  let cost_on cls r =
    let c = chunk_cost setup r in
    match (system, cls) with
    | Fam_ext, _ -> c.cc_vec
    | Fam_base, _ -> c.cc_scal
    | Melf, Sched.Extension -> c.cc_vec
    | Melf, Sched.Base -> c.cc_scal
    | Chimera, Sched.Extension -> c.cc_vec
    | Chimera, Sched.Base -> c.cc_chim
  in
  let config =
    { Sched.default_config with
      base_cores = (match system with Fam_ext -> 0 | _ -> threads / 2);
      ext_cores = (threads + 1) / 2;
      migrate_cost = 0 }
  in
  let tasks =
    List.mapi
      (fun i r ->
        { Sched.t_id = i;
          t_prefer_ext = true;
          t_run = (fun cls -> Sched.Done { cycles = cost_on cls r; accelerated = cls = Sched.Extension }) })
      sizes
  in
  let res = Sched.run config tasks in
  res.Sched.latency + sync

let acceleration setup system ~threads =
  let t0 = List.fold_left min max_int setup.s_threads in
  let base = latency setup Fam_ext ~threads:t0 in
  float_of_int base /. float_of_int (latency setup system ~threads)
