(** Register scavenging for translated code (paper §4.1, "Use extra base
    registers").

    Translations of batch-processing extension instructions need additional
    base registers for intermediate results. The scavenger picks registers
    not touched by the instruction being translated and brackets the
    translated computation with stack save/restore sequences, ordered
    first-in last-out. *)

val pick : n:int -> exclude:Regmask.t -> Reg.t list
(** [n] distinct registers outside [exclude], never [x0]/[sp]/[gp]/[tp],
    preferring temporaries. @raise Invalid_argument if impossible. *)

val pick_free : n:int -> exclude:Regmask.t -> free:Reg.t list -> Reg.t list * Reg.t list
(** Like {!pick}, but prefers registers from [free] (statically known dead
    at the site — no save/restore needed). Returns [(regs, to_spill)] where
    [to_spill] is the subset not covered by [free]. *)

val save : Codebuf.t -> Reg.t list -> unit
(** [addi sp,-8n; sd...]: push the registers (nothing for an empty list). *)

val restore : Codebuf.t -> Reg.t list -> unit
(** The FILO restores matching {!save} of the same list. *)

val with_spills : Codebuf.t -> Reg.t list -> (unit -> unit) -> unit
(** [with_spills cb regs body] emits [addi sp,-8n; sd...]; runs [body] (which
    emits the computation); then emits the FILO restores. *)
