(** Chimera's runtime mechanisms for one rewritten binary (paper §4.3).

    Models the kernel-side machinery: deterministic-fault recovery through
    the fault-handling table, trap-trampoline redirection, and lazy rewriting
    of extension instructions that static disassembly missed. Produces the
    {!Machine.handlers} a hart runs the rewritten binary under.

    Fault-address determination follows the paper exactly: an
    illegal-instruction fault carries its address in [pc]; a segmentation
    fault with execute access means the latter SMILE instruction ([jalr])
    ran alone, and the fault site is the link value it wrote into gp minus
    4. After recovery the handler restores gp to its static value. *)

type t

val create : ?costs:Costs.t -> Chbp.t -> t
(** Wrap a completed rewriting context. A {!Chbp.share}d context (a
    cache's memoized one) is only read: the first lazy rewrite replaces it
    with a private {!Chbp.copy} and extends that. *)

val load : t -> Memory.t
(** A fresh address-space view with the rewritten binary and a stack. *)

val counters : t -> Counters.t
val rewritten : t -> Binfile.t
val chbp : t -> Chbp.t
(** The current context: the one given to {!create}, or its private copy
    once a lazy rewrite has replaced a shared one. *)

val handlers : t -> Machine.handlers
(** Fault/trap handlers implementing the runtime mechanisms. Lazy rewriting
    patches every memory view this runtime has loaded through
    {!Memory.patch_code}, so every machine running one of those views
    invalidates the patched code before it next executes, the faulting
    one included. The runtime keeps no machine. The handlers read the fault table, the trap table and
    the general-register sites from the runtime's current context ({!chbp})
    when a fault or trap arrives, so entries a lazy rewrite adds — and the
    private copy it may switch to — take effect at once. *)

val run : t -> ?isa:Ext.t -> fuel:int -> Machine.t -> Machine.stop
(** Convenience: point the machine at [load t]'s view (loading one if none
    was created yet), initialize pc/sp/gp, and run under {!handlers}. [isa]
    defaults to the machine's current capability set. *)
