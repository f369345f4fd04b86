(** CHBP: Correct and High-performance Binary Patching (paper §4).

    Given an original binary and a direction (downgrade extension
    instructions to base code, upgrade scalar idioms to extension code, or
    empty-patch for measurement), CHBP:

    + disassembles recursively and recovers CFG + liveness;
    + generates target instructions for every source instruction
      (translation templates, scavenged registers, simulated vector state);
      in [Downgrade] mode a batch becomes one unit: a guarded full-strip
      fast path (one SEW and [vl] = VLMAX check per segment, straight-line
      element code for the whole batch, element values forwarded in dead
      registers, every vector-register write stored through), falling
      back at a failed guard to the per-instruction templates, which stay
      the only target of fault-table redirects and dispatch on the
      simulated [vsew], so a redirect past an in-batch [vsetvli] stays
      correct;
    + patches each source site with a SMILE trampoline — batching all source
      instructions of a basic block behind the first site's trampoline —
      at congruence-admissible target addresses (a later site's landing
      pad that misses its chunk's target window gets a chunk of its own);
    + selects exit registers by liveness, then by exit-position shifting
      (copying subsequent instructions, merging blocks when the shift
      crosses a terminator), falling back to trap-based exits;
    + records every overwritten instruction in the fault-handling table and
      every trap site in the trap table.

    The same machinery runs at runtime for lazy rewriting: {!extend} rewrites
    code discovered by an illegal-instruction fault and returns the memory
    patches to apply. *)

type mode = Downgrade | Upgrade | Empty

type options = {
  mode : mode;
  batch : bool;  (** batch sources per basic block (paper's optimization) *)
  style : [ `Smile | `Trap ];
      (** [`Trap] replaces every entry and exit trampoline with a trap-based
          one — the paper's strawman binary-patching baseline. *)
  spill_all : bool;
      (** Ablation: ignore liveness when scavenging translation scratch
          registers — every temporary is saved/restored on the stack (a
          fast path saves its three registers once and forwards nothing). *)
  use_gp : bool;
      (** When false, model an ISA without a gp-like register (paper
          Fig. 5): entry trampolines are built over a preceding
          [lui rd, hi; load rd2, lo(rd)] static-data access, using [rd] as
          the trampoline register — partial execution jumps to the data
          segment [rd] pointed at. Sites without such a sequence (and all
          sites of compressed binaries) fall back to trap trampolines, as
          the paper notes. Batching is disabled in this mode. *)
}

val default_options : mode -> options

type stats = {
  mutable source_insts : int;
  mutable sites : int;  (** SMILE trampolines written *)
  mutable trap_entries : int;  (** entry trampolines that fell back to traps *)
  mutable odd_entry_traps : int;
      (** resident traps over in-place sources bypassed by normal flow
          (general-register mode), catching hidden indirect entries *)
  mutable batches : int;
  mutable exits : int;
  mutable exit_liveness : int;  (** dead register found by liveness alone *)
  mutable exit_shift : int;  (** found after shifting the exit position *)
  mutable exit_terminator : int;  (** resolved by copying the terminator *)
  mutable exit_trap : int;  (** trap-based exit fallback *)
  mutable table_entries : int;
  mutable target_bytes : int;
  mutable lazy_sites : int;  (** sites rewritten at runtime via {!extend} *)
}

val pp_stats : Format.formatter -> stats -> unit

type t

val rewrite : ?options:options -> Binfile.t -> t
(** Run the static pipeline over every disassembly root. *)

val result : t -> Binfile.t
(** The rewritten binary: patched code sections, [.chimera.text.*] target
    sections, and (for downgrades) the [.chimera.vregs] section. Built on
    the first call and remembered until {!extend} changes the context. *)

val fault_table : t -> Fault_table.t

val trap_table : t -> Fault_table.t

val greg_sites : t -> (int * Reg.t) list
(** General-register SMILE sites ([use_gp = false]): the address of each
    trampoline's [jalr] and the register that carries its link value — the
    runtime needs both to attribute a partial-execution segfault. *)

val stats : t -> stats
val original : t -> Binfile.t
val gp_value : t -> int

type patch =
  | Patch_code of { addr : int; bytes : bytes }
      (** Overwrite existing code (trampoline insertion). *)
  | Patch_section of { addr : int; bytes : bytes }
      (** Map new executable pages (target instructions). *)

val extend : t -> root:int -> patch list
(** Lazy rewriting (paper §4.1/§4.3): disassemble from a faulting address
    that static analysis missed, rewrite the newly found source
    instructions, extend the fault/trap tables in place, and return the
    patches the runtime must apply to the loaded image. Apart from
    {!result} remembering its value, the only operation that mutates a
    context.
    @raise Invalid_argument on a {!share}d context. *)

(** {1 Sharing}

    A context that several runs read at once — a cache's memoized copy of
    a stored artifact, on any number of domains — is {!share}d. Runs read
    its tables and its remembered {!result}; one that needs to rewrite
    lazily {!copy}s it first. *)

val share : t -> unit
(** Build and remember {!result}, then make the context read-only:
    {!extend} refuses it from now on. *)

val is_shared : t -> bool

val copy : t -> t
(** A private, unshared context equal to [t]: everything {!extend}
    mutates is duplicated. *)
