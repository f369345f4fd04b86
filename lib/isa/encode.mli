(** Binary instruction encoder (real RISC-V bit layouts).

    The encoder is faithful to the RISC-V ISA manual for every instruction in
    the subset, because the SMILE trampoline's correctness argument depends on
    bit-level properties of the encodings (paper Fig. 7): the upper halfword
    of a suitably-constrained [auipc]/[jalr] pair must itself decode as a
    reserved (illegal) instruction. *)

val encode : Inst.t -> int
(** The encoded instruction: a 16-bit value for compressed instructions, a
    32-bit value otherwise (always non-negative).

    @raise Invalid_argument if an operand is out of encodable range, e.g. a
    branch offset beyond ±4 KiB, an odd jump offset, or a compressed
    register field outside x8..x15. *)

val write : bytes -> int -> Inst.t -> int
(** [write buf off i] stores the little-endian encoding of [i] at [off] and
    returns the number of bytes written (2 or 4). *)

val sext : int -> int -> int
(** [sext v bits] sign-extends the low [bits] bits of [v]. *)

val fits_signed : int -> int -> bool
(** [fits_signed v bits] is true when [v] is representable as a signed
    [bits]-bit integer. *)

val hi20 : int -> int
(** Upper part for a [lui]/[addi] pair materializing a 32-bit value:
    [hi20 v = (v + 0x800) asr 12] (as a signed 20-bit field). *)

val lo12 : int -> int
(** Lower part: [lo12 v = v - (hi20 v lsl 12)], a signed 12-bit value. *)

val sew_code : Inst.sew -> int
(** The [vsew] field of a [vtype]: E8 0, E16 1, E32 2, E64 3. *)

val alu_fields : Inst.alu_op -> int * int * int
(** [(funct7, funct3, opcode)] of an R-type ALU operation (used by the
    decoder to share one table with the encoder). *)
