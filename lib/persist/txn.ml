module T = Skipit_core.Thread
module Allocator = Skipit_mem.Allocator

let committed_flag = 1
let idle_flag = 0

(* Log layout: one header line ([status; count]) followed by one line per
   entry ([addr; value] — a whole line each so a single clean covers the
   entry).  The in-place targets are the user's own lines. *)
type t = { header : int; entries : int; capacity : int }

type txn = { owner : t; mutable writes : (int * int) list; mutable count : int }

let status_addr t = t.header
let count_addr t = t.header + 8
let entry_addr t i = t.entries + (i * 64)

let create alloc ~capacity =
  if capacity <= 0 then invalid_arg "Txn.create: capacity must be positive";
  let header = Allocator.alloc_line alloc ~line_bytes:64 in
  let entries = Allocator.alloc alloc ~align:64 (capacity * 64) in
  let t = { header; entries; capacity } in
  T.store (status_addr t) idle_flag;
  T.clean (status_addr t);
  T.fence ();
  t

let read txn addr =
  match List.assoc_opt addr txn.writes with
  | Some v -> v
  | None -> T.load addr

let write txn addr value =
  if addr land 7 <> 0 then invalid_arg "Txn.write: unaligned address";
  if (not (List.mem_assoc addr txn.writes)) && txn.count >= txn.owner.capacity then
    invalid_arg "Txn.write: transaction capacity exceeded";
  if not (List.mem_assoc addr txn.writes) then txn.count <- txn.count + 1;
  txn.writes <- (addr, value) :: List.remove_assoc addr txn.writes

(* The four commit phases (see the interface). *)
let phases t txn =
  let writes = List.rev txn.writes in
  [
    (fun () ->
      (* log *)
      List.iteri
        (fun i (addr, value) ->
          T.store (entry_addr t i) addr;
          T.store (entry_addr t i + 8) value;
          T.clean (entry_addr t i))
        writes;
      T.store (count_addr t) (List.length writes);
      T.fence ());
    (fun () ->
      (* mark: the durability point *)
      T.store (status_addr t) committed_flag;
      T.clean (status_addr t);
      T.fence ());
    (fun () ->
      (* apply *)
      List.iter
        (fun (addr, value) ->
          T.store addr value;
          T.clean addr)
        writes;
      T.fence ());
    (fun () ->
      (* clear *)
      T.store (status_addr t) idle_flag;
      T.clean (status_addr t);
      T.fence ());
  ]

let execute_steps t body ~steps =
  let txn = { owner = t; writes = []; count = 0 } in
  body txn;
  List.iteri (fun i phase -> if i < steps then phase ()) (phases t txn)

let execute t body = execute_steps t body ~steps:4

let recover t =
  if T.load (status_addr t) <> committed_flag then `Nothing
  else begin
    let count = T.load (count_addr t) in
    for i = 0 to count - 1 do
      let addr = T.load (entry_addr t i) in
      let value = T.load (entry_addr t i + 8) in
      T.store addr value;
      T.clean addr
    done;
    T.fence ();
    T.store (status_addr t) idle_flag;
    T.clean (status_addr t);
    T.fence ();
    `Replayed count
  end
