type t = { entries : int; q : int Queue.t }

let create ~entries =
  if entries <= 0 then invalid_arg "Store_queue.create: no entries";
  { entries; q = Queue.create () }

let capacity t = t.entries

let prune t ~now =
  let rec drop () =
    match Queue.peek_opt t.q with
    | Some drain when drain <= now ->
      ignore (Queue.pop t.q);
      drop ()
    | Some _ | None -> ()
  in
  drop ()

let insert t ~now ~drain_at =
  prune t ~now;
  let commit =
    if Queue.length t.q >= t.entries then max now (Queue.pop t.q) else now
  in
  (* Entries drain in order; a later store never completes before an
     earlier one (stores fire in order, §3.2). *)
  let drain_at =
    match Queue.fold (fun acc d -> max acc d) 0 t.q with
    | 0 -> drain_at
    | latest -> max drain_at latest
  in
  Queue.add drain_at t.q;
  commit

let drained_at t ~now =
  prune t ~now;
  Queue.fold (fun acc d -> max acc d) now t.q

let occupancy t ~now =
  prune t ~now;
  Queue.length t.q

let copy_into ~src ~dst =
  if dst.entries <> src.entries then invalid_arg "Store_queue.copy_into: capacities differ";
  Queue.clear dst.q;
  Queue.iter (fun d -> Queue.add d dst.q) src.q
