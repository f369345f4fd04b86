(** The OpenBLAS experiment (paper §6.4, Fig. 14).

    Four representative kernels — dgemm/sgemm (matrix–matrix) and
    dgemv/sgemv (matrix–vector), "d" = 64-bit elements, "s" = 32-bit — run
    multithreaded: the matrix rows are split into one chunk per thread, and
    the threads are pinned half to base cores, half to extension cores
    (T threads = T/2 + T/2, as in the paper). A barrier joins them; its cost
    grows with the thread count, faster for matrix–matrix kernels (panel
    synchronization) than matrix–vector ones — the effect behind the
    paper's scalability cliff (Fig. 14e).

    Four systems are compared, all normalized to FAM running the extension
    binary at the smallest thread count:
    - [Fam_ext]: vector binary, runs only on the extension cores;
    - [Fam_base]: scalar binary everywhere, no acceleration;
    - [Melf]: scalar variant on base cores, vector variant on extension;
    - [Chimera]: CHBP-downgraded vector binary on base cores, vector
      native on extension cores. *)

type kernel = Dgemm | Sgemm | Dgemv | Sgemv

val kernel_name : kernel -> string
val kernels : kernel list

type system = Fam_ext | Fam_base | Melf | Chimera

val system_name : system -> string
val systems : system list

type setup

val prepare :
  ?engine:Engine.t ->
  ?n:int ->
  ?run_all:((unit -> unit) list -> unit) ->
  kernel ->
  threads:int list ->
  setup
(** Build and measure every (chunk-size, variant, rewriting) combination
    the given thread counts need; [n] is the matrix dimension (default 48).
    Exit codes of all variants are cross-checked. [run_all] executes the
    independent per-chunk-size measurement thunks (default: sequentially);
    the bench driver passes a domain-pool runner. Every machine runs
    [engine] (default {!Engine.default}). *)

val latency : setup -> system -> threads:int -> int
(** Simulated end-to-end latency (chunk makespan + barrier). *)

val acceleration : setup -> system -> threads:int -> float
(** [latency(Fam_ext, min threads) / latency(system, threads)]. *)
