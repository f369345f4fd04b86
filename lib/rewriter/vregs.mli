(** Layout of the simulated vector state (paper §4.1, "Simulate unsupported
    extension registers").

    On cores without the V extension, the 256-bit vector registers and the
    [vl]/[vtype] CSRs are simulated in a dedicated read-write data section of
    the rewritten binary; translated code replaces register accesses with
    memory accesses into this section. *)

val base : int
(** Load address of the [.chimera.vregs] section. *)

val vl_off : int
(** Byte offset of the simulated [vl] CSR (8 bytes). *)

val vsew_off : int
(** Byte offset of the simulated element-width code (8 bytes; the
    {!Encode.sew_code} numbering). *)

val vreg_off : Reg.v -> int
(** Byte offset of a simulated 256-bit vector register. *)

val vlen_bytes : int
(** {!Machine.vlen_bytes}: the hart's vector register width. *)

val section_size : int

val section : unit -> Binfile.section
(** A fresh zero-filled [.chimera.vregs] section. *)
