type t = {
  capacity : int;
  (* Departure times recorded but not yet consumed by a later [admit], as
     a ring of [capacity] slots: the oldest at [head], [len] of them.  A
     well-formed sequence never holds more than [capacity] (each one
     frees a place some admission [capacity] positions later takes). *)
  departures : int array;
  mutable head : int;
  mutable len : int;
  mutable admitted : int;
  mutable released : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Admission.create: capacity must be positive";
  { capacity; departures = Array.make capacity 0; head = 0; len = 0; admitted = 0; released = 0 }

let capacity t = t.capacity

let peek_entry t ~now =
  (* Mirror [admit]'s arithmetic without consuming state: the next admission
     is number [admitted + 1], which waits on the FIFO-head departure once
     the room has been filled.  When that departure has not been recorded
     yet (its occupant is still inside), entry is unboundedly far away. *)
  if t.admitted < t.capacity then now
  else if t.len > 0 then Int.max now t.departures.(t.head)
  else max_int

let admit t ~now =
  t.admitted <- t.admitted + 1;
  (* The k-th admission waits for the departure of the (k - capacity)-th
     occupant; departures are recorded in admission order, so it is the
     FIFO head. *)
  if t.admitted > t.capacity then begin
    if t.len = 0 then invalid_arg "Admission.admit: room full and no departure recorded";
    let d = t.departures.(t.head) in
    t.head <- (if t.head = t.capacity - 1 then 0 else t.head + 1);
    t.len <- t.len - 1;
    Int.max now d
  end
  else now

let release t ~at =
  if t.len = t.capacity then invalid_arg "Admission.release: more departures than capacity";
  t.released <- t.released + 1;
  let i = t.head + t.len in
  t.departures.(if i >= t.capacity then i - t.capacity else i) <- at;
  t.len <- t.len + 1

let occupants t = t.admitted - t.released

let reset t =
  t.head <- 0;
  t.len <- 0;
  t.admitted <- 0;
  t.released <- 0

let copy_into ~src ~dst =
  if dst.capacity <> src.capacity then invalid_arg "Admission.copy_into: capacities differ";
  Ints.copy_into ~src:src.departures ~dst:dst.departures;
  dst.head <- src.head;
  dst.len <- src.len;
  dst.admitted <- src.admitted;
  dst.released <- src.released
