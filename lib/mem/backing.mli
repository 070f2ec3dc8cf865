(** Sparse word-addressable backing store.

    Models a flat physical address space holding 64-bit words.  Unwritten
    locations read as zero, as freshly-allocated DRAM does in the simulated
    machine.  Addresses are non-negative byte addresses; accesses are word
    (8 B) or line granular.  This is the value store shared by the DRAM model and by cache
    data arrays.  Words are kept in 64 B chunks, so a line read or write
    probes the index once, not once per word. *)

type t

val create : unit -> t

val read_word : t -> int -> int
(** [read_word t addr].  [addr] must be word aligned. *)

val write_word : t -> int -> int -> unit
(** [write_word t addr v]. *)

val read_line : t -> line_bytes:int -> int -> int array
(** [read_line t ~line_bytes addr] reads the [line_bytes/8] words of the line
    containing [addr] (aligned down) into a fresh array. *)

val read_line_into : t -> line_bytes:int -> int -> int array -> unit
(** [read_line_into t ~line_bytes addr dst] is {!read_line} into the first
    [line_bytes/8] words of [dst], allocating nothing.  A 64 B line costs
    one table probe. *)

val write_line : t -> line_bytes:int -> int -> int array -> unit
(** Inverse of {!read_line}; the array length must be [line_bytes/8]. *)

val copy : t -> t
(** Deep copy — used to snapshot the persistence domain in crash tests. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] hold exactly [src]'s words. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f addr word] for every word ever written (including
    explicit zero writes). *)

val footprint : t -> int
(** Number of distinct words ever written. *)
