(** Cache geometry: sizes, associativity and address slicing.

    The SonicBOOM configuration in the paper uses a 32 KiB 8-way L1 with 64 B
    lines and a 512 KiB inclusive L2 (§3.3, §7.1); both are instances of this
    geometry. *)

type t = private {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  sets : int;  (** [size_bytes / (ways * line_bytes)], a power of two. *)
  line_shift : int;  (** [log2 line_bytes]. *)
  tag_shift : int;  (** [log2 (line_bytes * sets)]. *)
}

val v : size_bytes:int -> ways:int -> line_bytes:int -> t
(** Validates that the parameters are positive powers of two and divide
    evenly. *)

val boom_l1 : t
(** 32 KiB, 8-way, 64 B lines (§3.3). *)

val boom_l2 : t
(** 512 KiB, 8-way, 64 B lines (§7.1). *)

val line_base : t -> int -> int
(** Align an address down to its line. *)

val index_of : t -> int -> int
(** Set index of an address.  Addresses are non-negative: the slicing
    functions shift instead of dividing. *)

val tag_of : t -> int -> int

val addr_of : t -> tag:int -> index:int -> int
(** Reconstruct the line base address from tag and set index (inverse of
    {!tag_of}/{!index_of} up to line alignment). *)

val words_per_line : t -> int
val offset_word : t -> int -> int
(** Word offset of an address within its line. *)

val lines : t -> int
(** Total number of lines the cache can hold. *)
