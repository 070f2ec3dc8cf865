(* The stub is a memmove: an int array holds only immediates, so its
   stores need no write barrier (see ints_stubs.c). *)
external unsafe_blit : int array -> int -> int array -> int -> int -> unit = "skipit_ints_blit"
[@@noalloc]

let blit src src_off dst dst_off len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off > Array.length src - len
    || dst_off > Array.length dst - len
  then invalid_arg "Ints.blit";
  unsafe_blit src src_off dst dst_off len

let copy_into ~(src : int array) ~(dst : int array) =
  let n = Array.length src in
  if Array.length dst <> n then invalid_arg "Ints.copy_into: length mismatch";
  unsafe_blit src 0 dst 0 n
