(** Versioned, checksummed Marshal container.

    One on-disk framing shared by the SELF binary format ({!Binfile}) and
    the persistent translation cache ([lib/cache]): an 8-byte magic, a
    caller-chosen payload version, a payload length, the Marshal payload,
    and an MD5 trailer over everything before it.

    The reader is total: truncation, foreign magic, version skew, bit flips
    and unmarshalable payloads all come back as [Error reason] instead of an
    exception, so a corrupt cache entry can fall back to the cold path and a
    corrupt binary file can be reported with a clear message. *)

val write : path:string -> magic:string -> version:int -> 'a -> unit
(** Marshal [v] and write the container atomically: to a temp file unique
    to this call, next to [path], then renamed over it. Concurrent writers
    of one [path] never collide; the last rename wins.
    @raise Invalid_argument if [magic] is not exactly 8 bytes;
    I/O errors propagate as [Sys_error]. *)

val read : path:string -> magic:string -> version:int -> ('a, string) result
(** Read back a container written by {!write} with the same [magic] and
    [version]. [Error reason] with [reason] one of ["missing"],
    ["truncated"], ["magic"], ["version"], ["checksum"], ["decode"].
    Unmarshaling is only attempted after the checksum verifies, so the
    usual Marshal segfault hazards on corrupt input do not apply — but the
    caller still owes the type annotation discipline Marshal demands. *)

(** {1 Two-step reads}

    {!read} is {!check} then {!decode}. A caller that already holds the
    decoded value of a file it has seen can check the frame alone and skip
    the unmarshal when {!frame_digest} matches the digest it saw then. *)

type frame
(** A container whose magic, version, length and checksum verified. Its
    bytes live in a buffer owned by the domain that checked it, grown on
    demand and reused by that domain's next check, so a frame is valid
    only until the next {!check} (or {!read}) on the same domain: using
    it later raises [Invalid_argument]. *)

val check : path:string -> magic:string -> version:int -> (frame, string) result
(** Every check {!read} makes except unmarshaling; the same reasons. The
    file is read into the calling domain's buffer, so checking a warm
    cache entry allocates no file-sized block. *)

val frame_digest : frame -> string
(** The MD5 trailer (raw 16 bytes): equal digests mean equal payloads. *)

val decode : frame -> ('a, string) result
(** Unmarshal a checked frame; [Error "decode"] if Marshal objects. Same
    type discipline as {!read}. *)

val peek_version : path:string -> magic:string -> int option
(** The stored payload version, if the file exists and carries [magic] —
    for "written by schema v5, this build reads v6" error messages. *)
