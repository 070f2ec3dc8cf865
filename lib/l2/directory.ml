open Skipit_tilelink

type t = { mutable dirty : bool; data : int array; owners : Perm.t array }

let make ~n_cores ~words =
  { dirty = false; data = Array.make words 0; owners = Array.make n_cores Perm.Nothing }

(* [Perm.t] is immediate, so these stores need no write barrier. *)
let reset t =
  t.dirty <- false;
  for i = 0 to Array.length t.owners - 1 do
    t.owners.(i) <- Perm.Nothing
  done

let owner_perm t core = t.owners.(core)
let set_owner t core perm = t.owners.(core) <- perm

(* Allocation-free, for the probe hot paths: write the owning cores
   (ascending, optionally excluding one) into the caller's reusable buffer
   and return the count.  [buf] must have at least [n_cores] room. *)
let owners_into t level ~exclude buf =
  let n = ref 0 in
  for i = 0 to Array.length t.owners - 1 do
    if i <> exclude && Perm.compare t.owners.(i) level > 0 then begin
      buf.(!n) <- i;
      incr n
    end
  done;
  !n

let copy_into ~src ~dst =
  dst.dirty <- src.dirty;
  Skipit_sim.Ints.copy_into ~src:src.data ~dst:dst.data;
  for i = 0 to Array.length src.owners - 1 do
    dst.owners.(i) <- src.owners.(i)
  done
