(** Dense index from instruction addresses to their positions.

    Built once from an ascending address array; a lookup is a binary search
    over the (few) runs of nearby code, then one array read. Used by the CFG
    and liveness passes in place of address-keyed hash tables. *)

type t

val of_sorted : int array -> t
(** Index an array of strictly ascending addresses. *)

val find : t -> int -> int
(** Position of the address in the indexed array, or [-1]. *)
