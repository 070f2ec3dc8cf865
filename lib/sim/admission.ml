type t = {
  capacity : int;
  (* Departure times recorded but not yet consumed by a later [admit]. *)
  departures : int Queue.t;
  mutable admitted : int;
  mutable released : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Admission.create: capacity must be positive";
  { capacity; departures = Queue.create (); admitted = 0; released = 0 }

let capacity t = t.capacity

let peek_entry t ~now =
  (* Mirror [admit]'s arithmetic without consuming state: the next admission
     is number [admitted + 1], which waits on the FIFO-head departure once
     the room has been filled.  When that departure has not been recorded
     yet (its occupant is still inside), entry is unboundedly far away. *)
  if t.admitted < t.capacity then now
  else match Queue.peek_opt t.departures with
    | Some d -> max now d
    | None -> max_int

let admit t ~now =
  t.admitted <- t.admitted + 1;
  (* The k-th admission waits for the departure of the (k - capacity)-th
     occupant; departures are recorded in admission order, so it is the
     FIFO head. *)
  if t.admitted > t.capacity then max now (Queue.pop t.departures) else now

let release t ~at =
  t.released <- t.released + 1;
  Queue.add at t.departures

let occupants t = t.admitted - t.released

let reset t =
  Queue.clear t.departures;
  t.admitted <- 0;
  t.released <- 0

let copy_into ~src ~dst =
  if dst.capacity <> src.capacity then invalid_arg "Admission.copy_into: capacities differ";
  Queue.clear dst.departures;
  Queue.iter (fun d -> Queue.add d dst.departures) src.departures;
  dst.admitted <- src.admitted;
  dst.released <- src.released
