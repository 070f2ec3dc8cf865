(** Typed copies between [int array]s. *)

val copy_into : src:int array -> dst:int array -> unit
(** Overwrite [dst] with [src], which must have the same length.  The loop
    stores ints without the write barrier: [Array.blit] into an array on
    the major heap goes through [caml_modify] for every element, about
    four times slower on a cache-line-sized table. *)
