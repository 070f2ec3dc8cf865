(* The annotations matter: an unannotated loop is polymorphic and goes
   through the generic array primitives, barrier included. *)
let copy_into ~(src : int array) ~(dst : int array) =
  let n = Array.length src in
  if Array.length dst <> n then invalid_arg "Ints.copy_into: length mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done
