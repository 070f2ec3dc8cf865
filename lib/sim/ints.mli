(** Typed copies between [int array]s.

    Both are one [memmove] in a C stub ([skipit_ints_blit]) that
    allocates nothing.  An int array holds only immediates, so the copy
    needs no write barrier, where [Array.blit] into an array on the major
    heap calls [caml_modify] for every element. *)

val copy_into : src:int array -> dst:int array -> unit
(** Overwrite [dst] with [src], which must have the same length. *)

val blit : int array -> int -> int array -> int -> int -> unit
(** [blit src src_off dst dst_off len]: [Array.blit] for int arrays,
    overlapping ranges included.  Raises [Invalid_argument] when a range
    is out of bounds. *)
