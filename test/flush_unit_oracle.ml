(* The flush unit as it was before its pending table: live pendings in an
   intrusive doubly-linked list of records, and a [Stdlib.Queue] "book"
   mirroring the queued entries.  Kept verbatim (apart from this header,
   the inlined queue module, a [Fshr_fsm] alias, [enqueue] tracing every
   entry it is given, full book or not, and no [Metrics] hooks: metrics
   are read off the trace events) as the differential oracle of
   [test_flush_unit]: on the same sequence of submissions, queries,
   crashes and copies, the live unit must answer, trace and count what
   this one does. *)

module Flush_queue = struct
  open Skipit_tilelink
  module Trace = Skipit_obs.Trace

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
    if Trace.enabled () then
      Trace.emit ~at:entry.enq_at
        (Trace.Flushq
           { name = t.name; op = Trace.Q_enqueue; addr = entry.addr; kind = trace_kind entry.kind });
    if is_full t then false
    else begin
      Queue.add entry t.q;
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
end

open Skipit_sim
open Skipit_tilelink
open Skipit_cache
module Fshr_fsm = Skipit_l1.Fshr_fsm
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution

type pending = {
  entry : Flush_queue.entry;
  commit_at : int;
  alloc_at : int;
  meta_write_at : int option;
  buffer_ready_at : int option;
  release_at : int;
  ack_at : int;
}

type submit_result =
  | Coalesced of { commit_at : int; ack_at : int }
  | Accepted of pending

(* Live pendings sit in an intrusive doubly-linked list in submission
   order (oldest first, matching the order conflict queries expect).
   Retirement walks it only once the clock reaches [min_ack], the earliest
   outstanding ack.  Every link to a node is its one [self] cell, so the
   list's shape depends only on its members, never on its history. *)
type pnode = {
  pend : pending;
  mutable pprev : pnode option;
  mutable pnext : pnode option;
  mutable self : pnode option;  (* [Some] this node *)
}

type t = {
  p : Params.t;
  core : int;
  fshrs : Resource.t;
  (* Queue-slot back-pressure (§5.2): a request may enqueue only once the
     request [flush_queue_depth] positions earlier was dequeued. *)
  admission : Admission.t option;  (* None when depth = 0 (no buffering) *)
  (* All requests whose ack is still outstanding, oldest first.  Doubles as
     the flush counter (§5.2) and the §5.3/§5.4 conflict-check structure;
     [prune] retires each node at the first query whose [now] reaches its
     [ack_at]. *)
  mutable phead : pnode option;
  mutable ptail : pnode option;
  mutable pcount : int;
  mutable min_ack : int;  (* min [ack_at] over the list, [max_int] if empty *)
  book : Flush_queue.t;  (** Bookkeeping mirror of queued entries for tests. *)
  stats : Stats.Registry.t;
  submitted : Stats.Registry.handle;
  coalesced : Stats.Registry.handle;
  fshr_allocs : Stats.Registry.handle;
  wb_with_data : Stats.Registry.handle;
  wb_without_data : Stats.Registry.handle;
  fshr_busy_cycles : Stats.Registry.handle;
  skip_dropped : Stats.Registry.handle;
}

let create p ~core =
  let stats = Stats.Registry.create () in
  let h = Stats.Registry.handle stats in
  {
    p;
    core;
    fshrs = Resource.create ~count:p.Params.n_fshrs (Printf.sprintf "fshr-%d" core);
    admission =
      (if p.Params.flush_queue_depth > 0 then
         Some (Admission.create ~capacity:p.Params.flush_queue_depth)
       else None);
    phead = None;
    ptail = None;
    pcount = 0;
    min_ack = max_int;
    book =
      Flush_queue.create
        ~name:(Printf.sprintf "fu.%d.q" core)
        ~depth:(Int.max 1 p.Params.flush_queue_depth) ();
    stats;
    submitted = h "submitted";
    coalesced = h "coalesced";
    fshr_allocs = h "fshr_allocs";
    wb_with_data = h "wb_with_data";
    wb_without_data = h "wb_without_data";
    fshr_busy_cycles = h "fshr_busy_cycles";
    skip_dropped = h "skip_dropped";
  }

let stats t = t.stats
let note_skip_drop t = Stats.Registry.bump t.skip_dropped
let skip_dropped t = Stats.Registry.get t.stats "skip_dropped"
let submitted t = Stats.Registry.get t.stats "submitted"

let append_pending t pend =
  let n = { pend; pprev = t.ptail; pnext = None; self = None } in
  let cell = Some n in
  n.self <- cell;
  (match t.ptail with
   | Some tail -> tail.pnext <- cell
   | None -> t.phead <- cell);
  t.ptail <- cell;
  t.pcount <- t.pcount + 1;
  t.min_ack <- Int.min t.min_ack pend.ack_at

let unlink_pending t n =
  (match n.pprev with
   | Some p -> p.pnext <- n.pnext
   | None -> t.phead <- n.pnext);
  (match n.pnext with
   | Some nx -> nx.pprev <- n.pprev
   | None -> t.ptail <- n.pprev);
  n.pprev <- None;
  n.pnext <- None;
  t.pcount <- t.pcount - 1

(* Walks over the live pendings, oldest first.  Top-level recursions, so
   a query allocates no closure. *)
let rec first_at addr = function
  | None -> None
  | Some n -> if n.pend.entry.Flush_queue.addr = addr then Some n.pend else first_at addr n.pnext

let rec first_coalescible ~addr ~kind ~last_line_change ~now = function
  | None -> None
  | Some n ->
    let p = n.pend in
    if
      p.entry.Flush_queue.addr = addr
      && p.entry.Flush_queue.kind = kind
      && p.alloc_at > now
      && p.entry.Flush_queue.enq_at >= last_line_change
    then Some p
    else first_coalescible ~addr ~kind ~last_line_change ~now n.pnext

let rec still_queued e ~now = function
  | None -> false
  | Some n -> (n.pend.entry == e && n.pend.alloc_at > now) || still_queued e ~now n.pnext

let rec max_release_at addr ~now acc = function
  | None -> acc
  | Some n ->
    let p = n.pend in
    let acc =
      if p.entry.Flush_queue.addr = addr && p.alloc_at <= now && p.release_at > now then
        Int.max acc p.release_at
      else acc
    in
    max_release_at addr ~now acc n.pnext

let rec max_ack_at acc = function
  | None -> acc
  | Some n -> max_ack_at (Int.max acc n.pend.ack_at) n.pnext

(* Unlink every pending whose ack is at or before [now], and recompute
   the bound over the survivors. *)
let rec retire t ~now min_ack = function
  | None -> t.min_ack <- min_ack
  | Some n ->
    let next = n.pnext in
    if n.pend.ack_at <= now then begin
      unlink_pending t n;
      retire t ~now min_ack next
    end
    else retire t ~now (Int.min min_ack n.pend.ack_at) next

let rec drop_booked t ~now =
  if
    (not (Flush_queue.is_empty t.book))
    && not (still_queued (Flush_queue.first t.book) ~now t.phead)
  then begin
    Flush_queue.drop_first t.book;
    drop_booked t ~now
  end

(* Retire completed requests from the conflict structures. *)
let prune t ~now =
  if now >= t.min_ack then retire t ~now max_int t.phead;
  drop_booked t ~now

let find_pending t ~addr ~now =
  prune t ~now;
  first_at addr t.phead

(* The §5.3 coalescing partner: a request of the same kind to the same
   line, still PENDING IN THE FLUSH QUEUE (not yet dequeued into an FSHR —
   once the FSHR starts, its metadata write is a state change of its own),
   with the cache-line state unchanged since it was enqueued.  This makes
   coalescing self-regulating: when the FSHRs keep up, requests leave the
   queue immediately and nothing merges; when they back up, same-line
   requests pile onto the queued entry — exactly the burst-absorbing
   behaviour §5.2 describes. *)
let find_coalescible t ~addr ~kind ~last_line_change ~now =
  prune t ~now;
  first_coalescible ~addr ~kind ~last_line_change ~now t.phead

(* Fig. 7 FSM states as trace events ([Invalid] is not a resident state). *)
let trace_state = function
  | Fshr_fsm.Meta_write -> Some Trace.Fs_meta_write
  | Fshr_fsm.Fill_buffer -> Some Trace.Fs_fill_buffer
  | Fshr_fsm.Root_release_data -> Some Trace.Fs_release_data
  | Fshr_fsm.Root_release -> Some Trace.Fs_release
  | Fshr_fsm.Root_release_ack -> Some Trace.Fs_release_ack
  | Fshr_fsm.Invalid -> None

type 'c sink = {
  apply_meta : 'c -> slot:int -> Fshr_fsm.meta_effect -> unit;
  send : 'c -> slot:int -> addr:int -> kind:Message.wb_kind -> with_data:bool -> now:int -> int;
}

let fshr_ev t ~at ~idx ~addr ~tkind op =
  Trace.emit ~at (Trace.Fshr { core = t.core; idx; op; addr; kind = tkind })

let submit_fresh t sink c ~addr ~kind ~hit ~dirty ~slot ~now =
  let depth = t.p.Params.flush_queue_depth in
  (* A full queue nacks the LSU, which retries — modelled as the stall
     until the oldest buffered request is dequeued into an FSHR. *)
  let enq_at =
    match t.admission with Some a -> Admission.admit a ~now | None -> now
  in
  Attr.mark Attr.Flushq_wait ~at:enq_at;
  let plan = Fshr_fsm.plan ~hit ~dirty ~kind in
  let entry =
    { Flush_queue.addr; kind; hit; dirty; enq_at; coalesced = 0 }
  in
  ignore (Flush_queue.enqueue t.book entry);
  Stats.Registry.bump t.fshr_allocs;
  let tkind = Flush_queue.trace_kind kind in
  (* FSHR allocation and the Fig. 7 walk.  The FSHR is picked at dequeue
     and held until the RootReleaseAck returns (root_release_ack state).
     The walk (and the root-release it sends) drains in the background
     after the CBO commits at [enq_at]; its future-dated completion times
     must not advance the attribution cursor of the issuing request. *)
  let saved_frame = Attr.suspend () in
  let idx = Resource.min_index t.fshrs in
  let alloc_at = Int.max enq_at (Resource.earliest_free t.fshrs) in
  if Trace.enabled () then begin
    Trace.emit ~at:alloc_at
      (Trace.Flushq
         { name = Flush_queue.name t.book; op = Trace.Q_dequeue; addr; kind = tkind });
    fshr_ev t ~at:alloc_at ~idx ~addr ~tkind Trace.Fshr_alloc
  end;
  let meta_cycles = t.p.Params.l1_meta_access in
  let fill_cycles = Params.fill_buffer_cycles t.p in
  let data_beats = Params.data_beats t.p in
  let meta_write = ref None in
  let buffer_ready = ref None in
  let tm = ref alloc_at in
  let state = ref (Fshr_fsm.first_state plan) in
  let walking = ref true in
  while !walking do
    let st = !state in
    (match st with
     | Fshr_fsm.Meta_write ->
       meta_write := Some (!tm + meta_cycles);
       sink.apply_meta c ~slot (Fshr_fsm.meta_effect plan)
     | Fshr_fsm.Fill_buffer -> buffer_ready := Some (!tm + fill_cycles)
     | Fshr_fsm.Invalid | Fshr_fsm.Root_release_data | Fshr_fsm.Root_release
     | Fshr_fsm.Root_release_ack -> ());
    (if Trace.enabled () then
       match trace_state st with
       | Some s -> fshr_ev t ~at:!tm ~idx ~addr ~tkind (Trace.Fshr_step s)
       | None -> ());
    tm := !tm + Fshr_fsm.state_cycles st ~meta_cycles ~fill_cycles ~data_beats;
    match st with
    | Fshr_fsm.Root_release_ack -> walking := false
    | _ -> state := Fshr_fsm.next plan st
  done;
  let release_at = !tm in
  let with_data = Fshr_fsm.sends_data plan in
  Stats.Registry.bump (if with_data then t.wb_with_data else t.wb_without_data);
  let ack_at = sink.send c ~slot ~addr ~kind ~with_data ~now:release_at in
  if Trace.enabled () then fshr_ev t ~at:ack_at ~idx ~addr ~tkind Trace.Fshr_free;
  Resource.hold t.fshrs ~idx ~start:alloc_at ~finish:ack_at;
  Attr.restore saved_frame;
  let pending =
    {
      entry;
      commit_at = (if depth = 0 then ack_at else enq_at);
      alloc_at;
      meta_write_at = !meta_write;
      buffer_ready_at = !buffer_ready;
      release_at;
      ack_at;
    }
  in
  Stats.Registry.bump_by t.fshr_busy_cycles (ack_at - alloc_at);
  (match t.admission with
   | Some a -> Admission.release a ~at:alloc_at
   | None -> ());
  append_pending t pending;
  Accepted pending

let submit t sink c ~addr ~kind ~hit ~dirty ~slot ~last_line_change ~now =
  Stats.Registry.bump t.submitted;
  if t.p.Params.coalescing then begin
    match find_coalescible t ~addr ~kind ~last_line_change ~now with
    | Some partner ->
      Stats.Registry.bump t.coalesced;
      Flush_queue.record_coalesce partner.entry;
      if Trace.enabled () then
        Trace.emit ~at:now
          (Trace.Flushq
             {
               name = Flush_queue.name t.book;
               op = Trace.Q_coalesce;
               addr;
               kind = Flush_queue.trace_kind kind;
             });
      Coalesced { commit_at = now; ack_at = partner.ack_at }
    | None -> submit_fresh t sink c ~addr ~kind ~hit ~dirty ~slot ~now
  end
  else submit_fresh t sink c ~addr ~kind ~hit ~dirty ~slot ~now

type load_conflict = Load_no_conflict | Load_forward of int | Load_wait of int

let load_conflict t ~addr ~now =
  match find_pending t ~addr ~now with
  | None -> Load_no_conflict
  | Some p -> (
    (* Forwarding from the FSHR's data buffer is only sound while
       [flush_rdy] is still low (before the release): probes are interlocked
       out then (§5.4.1), so the buffer provably holds the line's current
       data.  Once the release has gone out, a remote store may already have
       superseded the buffered data — the load waits for the ack and takes
       the ordinary miss path. *)
    match p.buffer_ready_at with
    | Some tb when Int.max now tb < p.release_at -> Load_forward (Int.max now tb)
    | Some _ | None -> Load_wait (Int.max now p.ack_at))

let store_proceed_at t ~addr ~now =
  match find_pending t ~addr ~now with
  | None -> None
  | Some p -> (
    match p.entry.Flush_queue.kind with
    | Message.Wb_flush -> Some (Int.max now p.ack_at)
    | Message.Wb_clean -> (
      (* Clean: may proceed once the FSHR is allocated and, if the line was
         dirty, once the data buffer is filled (§5.3). *)
      match p.buffer_ready_at with
      | Some tb -> Some (Int.max now (Int.max p.alloc_at tb))
      | None -> Some (Int.max now p.alloc_at)))

let block_until t ~addr ~now =
  prune t ~now;
  max_release_at addr ~now now t.phead

let probe_block_until t ~addr ~cap ~now =
  Flush_queue.probe_invalidate t.book ~addr ~cap;
  block_until t ~addr ~now

let evict_block_until t ~addr ~now =
  Flush_queue.evict_invalidate t.book ~addr;
  block_until t ~addr ~now

let fence_ready_at t ~now =
  prune t ~now;
  max_ack_at now t.phead

let outstanding t ~now =
  prune t ~now;
  t.pcount

let fshrs t = t.fshrs
let queue_occupants t = match t.admission with Some a -> Admission.occupants a | None -> 0

let crash t =
  (* Power failure: in-flight writebacks vanish.  Every conflict/occupancy
     structure must come back empty, or the next run on this system would
     inherit phantom back-pressure (leaked FSHR units, stale queue-departure
     times, booked entries that never drain). *)
  t.phead <- None;
  t.ptail <- None;
  t.pcount <- 0;
  t.min_ack <- max_int;
  let rec drain () =
    match Flush_queue.dequeue t.book with Some _ -> drain () | None -> ()
  in
  drain ();
  Resource.reset t.fshrs;
  match t.admission with Some a -> Admission.reset a | None -> ()

(* Each queued entry is shared by its pending and by [book]: copy it once
   and point both at the copy. *)
let copy_into ~src ~dst =
  Resource.copy_into ~src:src.fshrs ~dst:dst.fshrs;
  (match src.admission, dst.admission with
   | Some a, Some b -> Admission.copy_into ~src:a ~dst:b
   | None, None -> ()
   | (Some _ | None), _ -> invalid_arg "Flush_unit.copy_into: queue depths differ");
  let copies = ref [] in
  let entry e =
    match List.assq_opt e !copies with
    | Some e' -> e'
    | None ->
      let e' = Flush_queue.copy_entry e in
      copies := (e, e') :: !copies;
      e'
  in
  dst.phead <- None;
  dst.ptail <- None;
  dst.pcount <- 0;
  let rec walk = function
    | None -> ()
    | Some n ->
      append_pending dst { n.pend with entry = entry n.pend.entry };
      walk n.pnext
  in
  walk src.phead;
  dst.min_ack <- src.min_ack;
  Flush_queue.copy_into ~entry ~src:src.book ~dst:dst.book;
  Stats.Registry.copy_into ~src:src.stats ~dst:dst.stats
