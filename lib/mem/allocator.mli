(** Bump allocator over the simulated physical address space.

    The persistent data structures allocate nodes from simulated memory; a
    simple monotone bump allocator is all they need (the originals in the
    paper use jemalloc/NVM allocators, but allocation policy is orthogonal to
    writeback behaviour — only {e placement} matters, which is why alignment
    and padding controls are provided). *)

type t

val create : ?base:int -> unit -> t
(** [create ~base ()] starts allocating at byte address [base]
    (default [0x1_0000], leaving low addresses free for test fixtures). *)

val alloc : t -> ?align:int -> int -> int
(** [alloc t ~align bytes] returns the base address of a fresh region of
    [bytes] bytes aligned to [align] (default 8).  [align] must be a power of
    two. *)

val alloc_line : t -> line_bytes:int -> int
(** Allocate one whole cache line, line-aligned — used when false sharing
    must be avoided (e.g. FliT's padded counters). *)

val used : t -> int
(** Bytes handed out so far, alignment padding included. *)

val copy_into : src:t -> dst:t -> unit
(** [dst] continues allocating where [src] would; the bases must
    match. *)
