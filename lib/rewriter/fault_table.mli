(** The per-rewritten-binary fault-handling table (paper §4.3).

    Maps the address of every original instruction overwritten by a
    trampoline to the address of its copy (or translation) in the target
    section. The runtime consults it to redirect erroneous executions after
    a deterministic fault; at rewrite time it is a write-once structure, at
    runtime read-only (extended only by lazy rewriting). *)

type t

val create : ?name:string -> unit -> t
(** [name] (default ["fault"]) tags the table's {!Obs.Table_add} trace
    events — the rewriter uses ["fault"] and ["trap"]. *)

val add : t -> key:int -> redirect:int -> unit
(** @raise Invalid_argument on a duplicate key (each original address has
    exactly one copy). *)

val copy : t -> t
(** An independent table with the same entries and name. *)

val find : t -> int -> int option
val count : t -> int
val iter : t -> (int -> int -> unit) -> unit
val merge_into : src:t -> dst:t -> unit
