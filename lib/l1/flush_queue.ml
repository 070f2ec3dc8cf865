open Skipit_tilelink
module Trace = Skipit_obs.Trace
module Metrics = Skipit_obs.Metrics

type entry = {
  addr : int;
  kind : Message.wb_kind;
  mutable hit : bool;
  mutable dirty : bool;
  enq_at : int;
  mutable coalesced : int;
}

type t = { name : string; depth : int; q : entry Queue.t }

let create ?(name = "flushq") ~depth () =
  if depth < 0 then invalid_arg "Flush_queue.create: negative depth";
  { name; depth; q = Queue.create () }

let name t = t.name
let depth t = t.depth
let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
let is_full t = Queue.length t.q >= t.depth

let trace_kind = function
  | Message.Wb_clean -> Trace.Clean
  | Message.Wb_flush -> Trace.Flush

let enqueue t entry =
  if is_full t then false
  else begin
    Queue.add entry t.q;
    if Trace.enabled () then
      Trace.emit ~at:entry.enq_at
        (Trace.Flushq
           { name = t.name; op = Trace.Q_enqueue; addr = entry.addr; kind = trace_kind entry.kind });
    if Metrics.enabled () then Metrics.count (t.name ^ ".enqueues") ~at:entry.enq_at;
    true
  end

let dequeue t = Queue.take_opt t.q

let first t =
  if Queue.is_empty t.q then invalid_arg "Flush_queue.first: empty queue";
  Queue.peek t.q

let drop_first t =
  if Queue.is_empty t.q then invalid_arg "Flush_queue.drop_first: empty queue";
  ignore (Queue.take t.q : entry)

(* Every probe and eviction lands here; an empty queue (the usual case)
   skips building the iteration closure. *)
let probe_invalidate t ~addr ~cap =
  if not (Queue.is_empty t.q) then
    Queue.iter
      (fun e ->
        if e.addr = addr then begin
          match cap with
          | Perm.Nothing ->
            e.hit <- false;
            e.dirty <- false
          | Perm.Branch -> e.dirty <- false
          | Perm.Trunk -> ()
        end)
      t.q

let evict_invalidate t ~addr = probe_invalidate t ~addr ~cap:Perm.Nothing

let find_coalescible t ~addr ~kind =
  let found = ref None in
  Queue.iter
    (fun e -> if !found = None && e.addr = addr && e.kind = kind then found := Some e)
    t.q;
  !found

let record_coalesce entry = entry.coalesced <- entry.coalesced + 1

let to_list t = List.of_seq (Queue.to_seq t.q)

let copy_entry e =
  {
    addr = e.addr;
    kind = e.kind;
    hit = e.hit;
    dirty = e.dirty;
    enq_at = e.enq_at;
    coalesced = e.coalesced;
  }

let copy_into ~entry ~src ~dst =
  Queue.clear dst.q;
  Queue.iter (fun e -> Queue.add (entry e) dst.q) src.q
