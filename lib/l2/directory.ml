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

let trunk_owner t =
  let n = Array.length t.owners in
  let rec scan i =
    if i >= n then None
    else if Perm.equal t.owners.(i) Perm.Trunk then Some i
    else scan (i + 1)
  in
  scan 0

let owners_above t level =
  let acc = ref [] in
  for i = Array.length t.owners - 1 downto 0 do
    if Perm.compare t.owners.(i) level > 0 then acc := i :: !acc
  done;
  !acc

(* Allocation-free variant for the probe hot paths: write the owning cores
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

let has_owners t = owners_above t Perm.Nothing <> []

let check_invariants t =
  match trunk_owner t with
  | None -> Ok ()
  | Some core ->
    let others = List.filter (fun c -> c <> core) (owners_above t Perm.Nothing) in
    if others = [] then Ok ()
    else
      Error
        (Printf.sprintf "Trunk owner %d coexists with other owners [%s]" core
           (String.concat "; " (List.map string_of_int others)))

let copy_into ~src ~dst =
  dst.dirty <- src.dirty;
  Skipit_sim.Ints.copy_into ~src:src.data ~dst:dst.data;
  for i = 0 to Array.length src.owners - 1 do
    dst.owners.(i) <- src.owners.(i)
  done
