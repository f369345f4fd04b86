(** Sparse paged memory with per-page R/W/X permissions.

    Pages are 4 KiB, kept in a sparse table, so address-space layouts with
    large gaps (the congruence-constrained Chimera target sections live far
    from the text) cost nothing. Mapped pages are {e demand-zero}: {!map}
    records a page and its permissions but gives it no storage, and the
    page gets its zero-filled 4 KiB the first time a checked access, a
    [poke_*] or {!share_range} touches it. A 1 MiB stack of which a guest
    touches three pages costs three pages. Permissions are enforced on the
    checked accessors ([load_*]/[store_*]/[fetch_u16]) whether or not the
    page has storage yet; the [peek_*]/[poke_*] accessors bypass them and
    model kernel/loader access.

    Pages can be shared between two memories ({!share_range}): the MMView
    process model maps each core class's rewritten code into a distinct view
    while all views alias the same physical data pages.

    {b Software TLB.} Each memory carries a small direct-mapped translation
    cache per access kind (read/write/execute) mapping page index to page
    payload, so hot checked accesses skip the page hashtable and the
    permission re-check. Any {!map}/{!set_perm}/{!share_range} — through
    {e any} memory, since pages can be aliased — advances a global
    permission epoch; a TLB whose recorded epoch lags is flushed before its
    next lookup. A fill materializes the page, so a TLB only ever caches
    pages with storage. A TLB hit therefore implies a successful permission
    check under the current epoch, preserving the deterministic-fault
    contract: a permission downgrade segfaults on the very next access even
    through a warm TLB (differentially tested in test/test_machine.ml). *)

type perm = { r : bool; w : bool; x : bool }

val perm_none : perm
val perm_r : perm
val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val pp_perm : Format.formatter -> perm -> unit

exception Violation of { addr : int; access : Fault.access }
(** Raised by checked accessors on a permission or unmapped-page violation. *)

type t

val create : unit -> t
val page_size : int
val page_bits : int
(** [page_size = 1 lsl page_bits]. *)

val map : t -> addr:int -> len:int -> perm -> unit
(** Map demand-zero pages covering [addr, addr+len): they read as zeros
    and get storage on first touch.
    @raise Invalid_argument if a covered page is already mapped. *)

val set_perm : t -> addr:int -> len:int -> perm -> unit
(** Change permissions of already-mapped pages.
    @raise Invalid_argument on an unmapped page. *)

val perm_at : t -> int -> perm option
(** Permissions of the page containing an address, if mapped. *)

val is_mapped : t -> int -> bool

val share_range : from:t -> into:t -> addr:int -> len:int -> unit
(** Alias the pages of [from] covering the range into [into]: both memories
    then see the same bytes (and permissions). Untouched source pages are
    materialized first, so a page without storage is never shared.
    @raise Invalid_argument if a source page is unmapped or a destination
    page already mapped. *)

(** {1 Checked accessors (raise {!Violation})} *)

val load_u8 : t -> int -> int
val load_u16 : t -> int -> int
val load_u32 : t -> int -> int
val load_u64 : t -> int -> int64
val store_u8 : t -> int -> int -> unit
val store_u16 : t -> int -> int -> unit
val store_u32 : t -> int -> int -> unit
val store_u64 : t -> int -> int64 -> unit

val fetch_u16 : t -> int -> int
(** 16-bit instruction fetch: requires execute permission. *)

val fetch_u16_direct : t -> int -> int
(** {!fetch_u16} through the page table instead of the TLB: the same
    permission checks and {!Violation}s, but it counts no TLB hit or miss,
    fills no TLB slot and gives an untouched page no storage (it reads as
    zeros). A plan replay decodes through it, so seeding a machine leaves
    its TLB as it was. *)

(** {1 Direct page access}

    [read_data]/[write_data] perform one full TLB-checked translation of
    the page containing the address and return its payload bytes. The
    block engine's 64-bit accesses go through them, so an in-page value
    moves between the page and the register file without an [Int64] box
    (a page-crossing access falls back to [load_u64]/[store_u64]). Each
    access makes its own call: the returned bytes are used for that one
    access only. Offsets into the returned bytes must stay within
    [page_size]. *)

val read_data : t -> int -> bytes
(** Page payload for a read access to the page containing the address.
    Counts one TLB hit/miss; raises {!Violation} like [load_*]. *)

val write_data : t -> int -> bytes
(** Page payload for a write access; counterpart of {!read_data}. *)

(** {1 Unchecked accessors (loader / kernel)}

    Peeks never change the address space: an unmapped or untouched page
    reads as zeros, and nothing is mapped or materialized. Pokes map an
    unmapped page on demand (with {!perm_none}, so a checked access still
    faults until {!set_perm}) and materialize the page they write. *)

val peek_u8 : t -> int -> int
val peek_u16 : t -> int -> int
val peek_u32 : t -> int -> int
val peek_u64 : t -> int -> int64
val poke_u8 : t -> int -> int -> unit
val poke_u16 : t -> int -> int -> unit
val poke_u32 : t -> int -> int -> unit
val poke_u64 : t -> int -> int64 -> unit
val poke_bytes : t -> int -> bytes -> unit
val peek_bytes : t -> int -> int -> bytes

val patch_code : t -> int -> bytes -> unit
(** {!poke_bytes}, logged: every machine running this memory invalidates
    the range before it next executes ({!Machine.run}). *)

val code_log : t -> (int * int) list
(** [(addr, len)] of every {!patch_code}, newest first; a read log stays a
    physical suffix of every later one. *)

val peek_into : t -> int -> bytes -> int -> int -> unit
(** [peek_into t addr dst off len] copies [len] bytes at [addr] into [dst]
    at [off]: {!peek_bytes} without the fresh buffer. *)

val mapped_ranges : t -> (int * int) list
(** Sorted [(addr, len)] list of maximal mapped runs (diagnostics). *)

(** {1 Software-TLB statistics} *)

val tlb_stats : t -> int * int
(** [(hits, misses)] of this memory's TLB since creation or the last
    {!flush_tlb_stats}. *)

val tlb_misses_live : t -> int
(** The miss component of {!tlb_stats} alone, without allocating the pair —
    read on the profiler's per-dispatch path to attribute misses to the
    enclosing translation block. *)

val flush_tlb_stats : t -> unit
(** Add this memory's hit/miss counts to the [chimera_tlb_hits_total] and
    [chimera_tlb_misses_total] metrics (when {!Metrics.enabled}) and zero
    them ({!Machine.run} calls this once per run for each of its views). *)
