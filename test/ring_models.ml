(* The [int Queue.t] implementations of the admission room and the store
   queue that the rings of [Skipit_sim.Admission] and
   [Skipit_cpu.Store_queue] replaced, kept verbatim (apart from the
   module wrappers) as the models the ring properties compare against. *)

module Admission = struct
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

  let peek_entry t ~now =
    if t.admitted < t.capacity then now
    else match Queue.peek_opt t.departures with
      | Some d -> max now d
      | None -> max_int

  let admit t ~now =
    t.admitted <- t.admitted + 1;
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
end

module Store_queue = struct
  type t = { entries : int; q : int Queue.t }

  let create ~entries =
    if entries <= 0 then invalid_arg "Store_queue.create: no entries";
    { entries; q = Queue.create () }

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
end
