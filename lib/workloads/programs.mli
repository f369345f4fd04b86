(** Workload program builders — the "compiler" of this reproduction.

    Each builder emits a complete binary computing a deterministic checksum
    (returned as the exit code, masked to 8 bits) so that original and
    rewritten runs can be compared bit-for-bit. Vectorizable workloads come
    in two variants, matching the paper's compilation setup (§6.1): the
    [`Base] variant uses only RV64GC (with loops in the canonical shape the
    upgrade recognizer knows), the [`Ext] variant is RVV-vectorized. *)

type variant = [ `Base | `Ext ]

val matmul : ?name:string -> variant -> n:int -> Binfile.t
(** [n]×[n] int64 matrix multiplication (the paper's extension task). The
    [`Ext] variant vectorizes the inner loop with [vmacc.vx]. *)

val fibonacci : ?name:string -> rounds:int -> unit -> Binfile.t
(** Iterative Fibonacci repeated [rounds] times (the paper's base task —
    not vector-accelerable). *)

val vecadd : ?name:string -> variant -> n:int -> Binfile.t
(** Element-wise 64-bit vector addition, strip-mined. The [`Base] variant's
    loop is in the canonical upgradeable shape. *)

val branchy : ?name:string -> rounds:int -> unit -> Binfile.t
(** Branch-dense kernel: a tight loop stepping an xorshift PRNG and
    branching on its low bits each iteration — the taken/not-taken mix is
    effectively random, stressing side-exit-heavy superblock dispatch (plus
    one compare+branch pair in fusable shape). *)

val indirecty : ?name:string -> ?targets:int -> rounds:int -> unit -> Binfile.t
(** Indirect-call-dense kernel: a tight loop dispatching through a
    [targets]-entry (default three) function-pointer table with a
    rotating index, one [jalr] call plus return per iteration. The call
    site is polymorphic (megamorphic beyond the inline cache's eight-entry
    table) and each kernel's return site monomorphic — the stress test
    for the jalr inline caches. *)

val gemv :
  ?name:string -> ?rows:int * int -> variant -> sew:Inst.sew -> n:int -> Binfile.t
(** Matrix–vector product [y = A x] over [sew]-width integers ("dgemv" at
    e64, "sgemv" at e32), optionally restricted to a row range (the unit one
    thread computes). *)

val gemm : ?name:string -> variant -> sew:Inst.sew -> n:int -> rows:int * int -> Binfile.t
(** Matrix–matrix product restricted to the row range [\[lo, hi)] — the unit
    one thread computes in the parallel BLAS experiments ("dgemm" at e64,
    "sgemm" at e32). *)
