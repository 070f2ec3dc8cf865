(* Drain times as a ring of [entries] slots, oldest at [head].  Stores
   drain in order, so the times never decrease along the ring: the oldest
   is the head and the latest the tail, and every operation is O(1)
   (amortised for the pruning of drained entries). *)
type t = { entries : int; q : int array; mutable head : int; mutable len : int }

let create ~entries =
  if entries <= 0 then invalid_arg "Store_queue.create: no entries";
  { entries; q = Array.make entries 0; head = 0; len = 0 }

let capacity t = t.entries

let pop t =
  let d = t.q.(t.head) in
  t.head <- (if t.head = t.entries - 1 then 0 else t.head + 1);
  t.len <- t.len - 1;
  d

let tail t =
  let i = t.head + t.len - 1 in
  t.q.(if i >= t.entries then i - t.entries else i)

let prune t ~now =
  while t.len > 0 && t.q.(t.head) <= now do
    ignore (pop t)
  done

let insert t ~now ~drain_at =
  prune t ~now;
  let commit = if t.len >= t.entries then Int.max now (pop t) else now in
  (* Entries drain in order; a later store never completes before an
     earlier one (stores fire in order, §3.2). *)
  let latest = if t.len = 0 then 0 else Int.max 0 (tail t) in
  let drain_at = if latest = 0 then drain_at else Int.max drain_at latest in
  let i = t.head + t.len in
  t.q.(if i >= t.entries then i - t.entries else i) <- drain_at;
  t.len <- t.len + 1;
  commit

let drained_at t ~now =
  prune t ~now;
  if t.len = 0 then now else Int.max now (tail t)

let occupancy t ~now =
  prune t ~now;
  t.len

let copy_into ~src ~dst =
  if dst.entries <> src.entries then invalid_arg "Store_queue.copy_into: capacities differ";
  Skipit_sim.Ints.copy_into ~src:src.q ~dst:dst.q;
  dst.head <- src.head;
  dst.len <- src.len
