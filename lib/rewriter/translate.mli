(** Downgrade translation templates (paper §4.1).

    Each vector (or bit-manipulation) instruction is translated into a
    semantically equivalent base-instruction sequence, in the role the
    paper's QEMU-TCG templates play. Vector state is read from and written
    to the simulated register file ({!Vregs}); scavenged base registers are
    saved/restored around the computation.

    The element width of most vector operations (.vv/.vx arithmetic,
    [vmv.v.x], [vmv.x.s], [vredsum]) is dynamic state set by the last
    [vsetvli]. When the caller passes a static width the template
    specializes; only Safer does, for a [vsetvli] earlier in its
    regenerated code. Otherwise, and always in CHBP, the template emits a
    dispatch on the simulated [vsew] with one loop per width (E64, the
    common width, is the dispatch's fall-through), so it is correct
    whatever [vsetvli] an entry skipped.

    Two granularities share the element arithmetic:
    - {!downgrade}, one instruction at a time, correct for any [vl] and
      entered at any instruction: Safer's translation, and CHBP's slow path,
      the only target of its fault-table redirects;
    - the batch fast path ({!fast_begin} ... {!fast_inst}), straight-line
      code for a whole CHBP batch under a guard that the strip is full
      ([vl] = VLMAX) at a known SEW. *)

val can_downgrade : Inst.t -> bool
(** True for every V-extension instruction and Zba/Zbb instruction. *)

val vlmax : Inst.sew -> int
(** Elements per vector register at the SEW. *)

val downgrade :
  Codebuf.t ->
  static_sew:Inst.sew option ->
  ?free:Reg.t list ->
  ?vctx:Reg.t * Reg.t ->
  ?full_strip:bool ->
  Inst.t ->
  unit
(** Emit the base-only translation of one instruction into the buffer.
    [free] names registers statically known dead at the site: the template
    prefers them as scratch registers and skips their save/restore (the
    paper's register-pressure story in reverse — low pressure makes
    translations cheap).

    [vctx = (rbase, rvl)] is the batch context: registers the caller has
    loaded with the simulated-state base address and the current [vl],
    shared across a run of adjacent translations. The template then skips
    its own state setup; a [vsetvli] translation refreshes [rvl].

    [full_strip] (default [true]) adds an unrolled copy for [vl] = VLMAX
    in front of the element loop; a caller whose fast path already covers
    full strips passes [false].
    @raise Invalid_argument if [can_downgrade] is false. *)

(** {1 Batch fast path}

    The caller (CHBP) emits, in program order: {!fast_begin}; a guard for
    each segment (a run of instructions between [vsetvli]s) — {!fast_check}
    for a first segment with no [vsetvli] of its own, {!fast_vsetvli} for
    the others; {!fast_inst} for each vector instruction; and copies of the
    scalar instructions in between, which must not touch the base, scratch
    or pool registers. A failed guard branches to the caller's [fail]
    label (a conditional branch: within 4 KiB) before it has changed any
    state, so the caller continues in its slow path at the same source
    instruction. Every guard falls through on success.

    Invariant: every vector-register write is stored through to the
    simulated register file, so the file (and [vl]/[vsew]) is exact at
    every guard and at the end of the fast path. *)

type fast

val fast_begin :
  Codebuf.t -> base:Reg.t -> scratch:Reg.t * Reg.t -> pool:Regmask.t -> fast
(** Load the state base address into [base] (one [lui]). [scratch] are
    two more registers the element code clobbers; [pool] holds the
    registers free to forward element values written earlier in the batch
    (possibly empty). All of them must be dead across the batch or saved
    by the caller. *)

val fast_supported : sew:Inst.sew -> Inst.t -> bool
(** Whether the fast path handles the instruction in a segment of the
    given SEW: memory accesses must use it as their element width, and a
    [vsetvli x0, x0] (which keeps [vl]) is not handled. *)

val vread_mask : Inst.t -> int
(** The vector registers an instruction reads, bit [i] for [vi]. *)

val fast_check : Codebuf.t -> fast -> fail:string -> Inst.sew -> unit
(** Guard for a segment with no [vsetvli]: branch to [fail] unless the
    simulated [vsew] is the given SEW and [vl] is its VLMAX. *)

val fast_vsetvli : Codebuf.t -> fast -> fail:string -> Reg.t -> Reg.t -> Inst.sew -> unit
(** [fast_vsetvli cb f ~fail rd rs1 sew]: branch to [fail] unless the
    AVL in [rs1] reaches VLMAX; otherwise store the new [vsew] and [vl]
    and write [rd]. *)

val fast_inst : Codebuf.t -> fast -> live_after:int -> Inst.t -> unit
(** Element code for one vector instruction (not [vsetvli]) of the
    current segment. [live_after] masks the vector registers the rest of
    the batch reads ({!vread_mask}); only those are forwarded. *)

val fast_free : fast -> Reg.t list
(** Pool registers currently forwarding nothing: free scratch for a
    per-instruction template inside the fast path. *)
