(** Integer and vector register names of the simulated RV64 machine.

    Integer registers follow the RISC-V integer ABI (psABI): [x0] is
    hardwired zero, [gp] ([x3]) is the global pointer whose value is fixed at
    link time and never changes at runtime — the property the SMILE trampoline
    exploits. Vector registers [v0]..[v31] belong to the V extension. *)

type t = private int
(** An integer register, [x0] .. [x31]. The representation is exposed
    read-only so hot code can coerce with [(r :> int)] at no cost; values
    are only built through the range-checked {!of_int} and the names
    below. *)

val of_int : int -> t
(** [of_int n] is register [xn]. @raise Invalid_argument unless [0 <= n < 32]. *)

val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val name : t -> string
(** ABI mnemonic, e.g. [name gp = "gp"], [name (of_int 10) = "a0"]. *)

val pp : Format.formatter -> t -> unit

(** {1 ABI names} *)

val x0 : t
val zero : t
val ra : t
val sp : t
val gp : t
val tp : t
val t0 : t
val t1 : t
val t2 : t
val s0 : t
val fp : t
val s1 : t
val a0 : t
val a1 : t
val a2 : t
val a3 : t
val a4 : t
val a5 : t
val a6 : t
val a7 : t
val s2 : t
val s3 : t
val s4 : t
val s5 : t
val s6 : t
val s7 : t
val s8 : t
val s9 : t
val s10 : t
val s11 : t
val t3 : t
val t4 : t
val t5 : t
val t6 : t

val all : t list
(** All 32 integer registers in index order. *)

val caller_saved : t list
(** Registers a callee may clobber: [ra], [t0]-[t6], [a0]-[a7]. *)

val callee_saved : t list
(** Registers preserved across calls: [sp], [s0]-[s11]. *)

val temporaries : t list
(** Scratch registers preferred by the rewriter when scavenging:
    [t6; t5; t4; t3; t2; t1; t0]. *)

(** {1 Vector registers} *)

type v
(** A vector register, [v0] .. [v31]. *)

val v_of_int : int -> v
(** @raise Invalid_argument unless [0 <= n < 32]. *)

val v_to_int : v -> int
val v_equal : v -> v -> bool
val v_name : v -> string
val pp_v : Format.formatter -> v -> unit
val all_v : v list
