type t = {
  name : string;
  free_at : int array;  (* per-unit time at which the unit becomes idle *)
  mutable busy_cycles : int;
  (* Every unit, ordered by [(free_at, index)], as a ring starting at
     [head]: the head is the unit the naive scan picks (the lowest index
     among the earliest free).  An acquisition takes the head and slides
     it back in from the tail; its new finish time is almost always the
     latest, so that costs O(1) instead of a rescan of every unit. *)
  order : int array;
  mutable head : int;
}

let create ?(count = 1) name =
  if count <= 0 then invalid_arg "Resource.create: count <= 0";
  { name; free_at = Array.make count 0; busy_cycles = 0; order = Array.init count Fun.id; head = 0 }

let name t = t.name
let min_index t = t.order.(t.head)

(* Unit [a] sorts before unit [b]. *)
let before t a b =
  let fa = t.free_at.(a) and fb = t.free_at.(b) in
  fa < fb || (fa = fb && a < b)

let next n j = if j = n - 1 then 0 else j + 1
let prev n j = if j = 0 then n - 1 else j - 1

(* Set unit [i]'s free time to [finish] and restore the order.  [i] is
   the head unless a reentrant acquisition moved it; the ring positions
   from the head to [i] shift back by one, the freed slot becomes the
   tail, and [i] walks in from there. *)
let place t i finish =
  let ord = t.order in
  let n = Array.length ord in
  t.free_at.(i) <- finish;
  if n > 1 then begin
    let p = ref t.head in
    while ord.(!p) <> i do
      p := next n !p
    done;
    while !p <> t.head do
      ord.(!p) <- ord.(prev n !p);
      p := prev n !p
    done;
    let tail = t.head in
    t.head <- next n t.head;
    let p = ref tail in
    while !p <> t.head && before t i ord.(prev n !p) do
      ord.(!p) <- ord.(prev n !p);
      p := prev n !p
    done;
    ord.(!p) <- i
  end

(* Tuple-free: the per-access timing arithmetic needs only the finish. *)
let acquire_finish t ~now ~busy =
  if busy < 0 then invalid_arg "Resource.acquire: negative busy";
  let i = min_index t in
  let finish = Int.max now t.free_at.(i) + busy in
  place t i finish;
  t.busy_cycles <- t.busy_cycles + busy;
  finish

let acquire t ~now ~busy =
  let finish = acquire_finish t ~now ~busy in
  finish - busy, finish

let acquire_start t ~now ~busy = acquire_finish t ~now ~busy - busy

(* Pick/hold: the unit stays at the head until [hold] commits it, so an
   acquisition made in between on the same resource picks it too, exactly
   as a scan of [free_at] would. *)
let hold t ~idx ~start ~finish =
  if finish < start then invalid_arg "Resource.hold: finish < start";
  place t idx finish;
  t.busy_cycles <- t.busy_cycles + (finish - start)

let earliest_free t = t.free_at.(min_index t)
let all_free_at t = Array.fold_left Int.max 0 t.free_at

let busy_at t now =
  Array.fold_left (fun acc f -> if f > now then acc + 1 else acc) 0 t.free_at

let total_busy_cycles t = t.busy_cycles

let copy_into ~src ~dst =
  if Array.length dst.free_at <> Array.length src.free_at then
    invalid_arg "Resource.copy_into: unit counts differ";
  Ints.copy_into ~src:src.free_at ~dst:dst.free_at;
  Ints.copy_into ~src:src.order ~dst:dst.order;
  dst.busy_cycles <- src.busy_cycles;
  dst.head <- src.head

let reset t =
  Array.fill t.free_at 0 (Array.length t.free_at) 0;
  Array.iteri (fun i _ -> t.order.(i) <- i) t.order;
  t.busy_cycles <- 0;
  t.head <- 0

module Banked = struct
  type bank = t
  type nonrec t = { banks : t array }

  let create ~banks ?(count = 1) name =
    if banks <= 0 then invalid_arg "Resource.Banked.create: banks <= 0";
    { banks = Array.init banks (fun i -> create ~count (Printf.sprintf "%s[%d]" name i)) }

  let bank_of t ~addr ~line_bytes =
    t.banks.(addr / line_bytes mod Array.length t.banks)

  let acquire t ~addr ~line_bytes ~now ~busy =
    acquire (bank_of t ~addr ~line_bytes) ~now ~busy

  let acquire_finish t ~addr ~line_bytes ~now ~busy =
    acquire_finish (bank_of t ~addr ~line_bytes) ~now ~busy

  let reset t = Array.iter reset t.banks
  let copy_into ~src ~dst = Array.iter2 (fun src dst -> copy_into ~src ~dst) src.banks dst.banks
end
