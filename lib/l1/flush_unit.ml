open Skipit_sim
open Skipit_tilelink
open Skipit_cache
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution

type pending = {
  addr : int;
  kind : Message.wb_kind;
  enq_at : int;
  commit_at : int;
  alloc_at : int;
  buffer_ready_at : int option;
  release_at : int;
  ack_at : int;
}

(* The pending table: one row of [stride] ints per live request, rows in
   submission order (oldest first, the order the conflict queries expect)
   at the front of [tbl].  Retirement compacts the survivors forward and
   runs only once the clock reaches [min_ack], the earliest outstanding
   ack. *)
let f_addr = 0
let f_kind = 1  (* 0 clean, 1 flush *)
let f_enq = 2
let f_alloc = 3
let f_buf = 4  (* data buffer filled, or [no_buffer] *)
let f_release = 5
let f_ack = 6
let stride = 7
let no_buffer = min_int
let initial_rows = 4

let kind_code = function Message.Wb_clean -> 0 | Message.Wb_flush -> 1
let kind_of_code c = if c = 0 then Message.Wb_clean else Message.Wb_flush

let trace_kind = function
  | Message.Wb_clean -> Trace.Clean
  | Message.Wb_flush -> Trace.Flush

type t = {
  p : Params.t;
  core : int;
  qname : string;  (* the queue's trace track, "fu.<core>.q" *)
  fshrs : Resource.t;
  (* Queue-slot back-pressure (§5.2): a request may enqueue only once the
     request [flush_queue_depth] positions earlier was dequeued. *)
  admission : Admission.t option;  (* None when depth = 0 (no buffering) *)
  (* All requests whose ack is still outstanding, [len] rows.  Doubles as
     the flush counter (§5.2) and the §5.3/§5.4 conflict-check structure;
     [prune] retires each row at the first query whose [now] reaches its
     ack. *)
  mutable tbl : int array;
  mutable len : int;
  mutable min_ack : int;  (* min ack over the rows, [max_int] if none *)
  (* The most recent submit's ack, and whether it merged. *)
  mutable last_ack : int;
  mutable last_coalesced : bool;
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
    qname = Printf.sprintf "fu.%d.q" core;
    fshrs = Resource.create ~count:p.Params.n_fshrs (Printf.sprintf "fshr-%d" core);
    admission =
      (if p.Params.flush_queue_depth > 0 then
         Some (Admission.create ~capacity:p.Params.flush_queue_depth)
       else None);
    tbl = Array.make (initial_rows * stride) 0;
    len = 0;
    min_ack = max_int;
    last_ack = 0;
    last_coalesced = false;
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
let ack_at t = t.last_ack
let last_coalesced t = t.last_coalesced

let[@inline] get t i f = Array.unsafe_get t.tbl ((i * stride) + f)

let append t ~addr ~kind ~enq_at ~alloc_at ~buf ~release_at ~ack_at =
  if (t.len + 1) * stride > Array.length t.tbl then begin
    let bigger = Array.make (2 * Array.length t.tbl) 0 in
    Ints.blit t.tbl 0 bigger 0 (t.len * stride);
    t.tbl <- bigger
  end;
  let r = t.len * stride in
  let a = t.tbl in
  a.(r + f_addr) <- addr;
  a.(r + f_kind) <- kind_code kind;
  a.(r + f_enq) <- enq_at;
  a.(r + f_alloc) <- alloc_at;
  a.(r + f_buf) <- buf;
  a.(r + f_release) <- release_at;
  a.(r + f_ack) <- ack_at;
  t.len <- t.len + 1;
  t.min_ack <- Int.min t.min_ack ack_at

(* Drop every row whose ack is at or before [now], moving the survivors
   forward in order, and recompute the bound over them. *)
let retire t ~now =
  let kept = ref 0 and min_ack = ref max_int in
  for i = 0 to t.len - 1 do
    let ack = get t i f_ack in
    if ack > now then begin
      if !kept <> i then Ints.blit t.tbl (i * stride) t.tbl (!kept * stride) stride;
      incr kept;
      min_ack := Int.min !min_ack ack
    end
  done;
  t.len <- !kept;
  t.min_ack <- !min_ack

(* The first row (oldest) for [addr], or -1. *)
let first_at t addr =
  let i = ref 0 in
  while !i < t.len && get t !i f_addr <> addr do
    incr i
  done;
  if !i < t.len then !i else -1

(* Retire completed requests from the conflict structures. *)
let prune t ~now = if now >= t.min_ack then retire t ~now

(* The §5.3 coalescing partner: a request of the same kind to the same
   line, still PENDING IN THE FLUSH QUEUE (not yet dequeued into an FSHR —
   once the FSHR starts, its metadata write is a state change of its own),
   with the cache-line state unchanged since it was enqueued.  This makes
   coalescing self-regulating: when the FSHRs keep up, requests leave the
   queue immediately and nothing merges; when they back up, same-line
   requests pile onto the queued entry — exactly the burst-absorbing
   behaviour §5.2 describes.  Returns the partner's row, or -1. *)
let find_coalescible t ~addr ~kind ~last_line_change ~now =
  prune t ~now;
  let k = kind_code kind in
  let i = ref 0 in
  while
    !i < t.len
    && not
         (get t !i f_addr = addr
          && get t !i f_kind = k
          && get t !i f_alloc > now
          && get t !i f_enq >= last_line_change)
  do
    incr i
  done;
  if !i < t.len then !i else -1

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
  let tkind = trace_kind kind in
  if Trace.enabled () then
    Trace.emit ~at:enq_at
      (Trace.Flushq { name = t.qname; op = Trace.Q_enqueue; addr; kind = tkind });
  Stats.Registry.bump t.fshr_allocs;
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
      (Trace.Flushq { name = t.qname; op = Trace.Q_dequeue; addr; kind = tkind });
    fshr_ev t ~at:alloc_at ~idx ~addr ~tkind Trace.Fshr_alloc
  end;
  let meta_cycles = t.p.Params.l1_meta_access in
  let fill_cycles = Params.fill_buffer_cycles t.p in
  let data_beats = Params.data_beats t.p in
  let buffer_ready = ref no_buffer in
  let tm = ref alloc_at in
  let state = ref (Fshr_fsm.first_state plan) in
  let walking = ref true in
  while !walking do
    let st = !state in
    (match st with
     | Fshr_fsm.Meta_write -> sink.apply_meta c ~slot (Fshr_fsm.meta_effect plan)
     | Fshr_fsm.Fill_buffer -> buffer_ready := !tm + fill_cycles
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
  Stats.Registry.bump_by t.fshr_busy_cycles (ack_at - alloc_at);
  (match t.admission with
   | Some a -> Admission.release a ~at:alloc_at
   | None -> ());
  append t ~addr ~kind ~enq_at ~alloc_at ~buf:!buffer_ready ~release_at ~ack_at;
  t.last_ack <- ack_at;
  if depth = 0 then ack_at else enq_at

let submit t sink c ~addr ~kind ~hit ~dirty ~slot ~last_line_change ~now =
  Stats.Registry.bump t.submitted;
  let partner =
    if t.p.Params.coalescing then find_coalescible t ~addr ~kind ~last_line_change ~now
    else -1
  in
  t.last_coalesced <- partner >= 0;
  if partner >= 0 then begin
    Stats.Registry.bump t.coalesced;
    if Trace.enabled () then
      Trace.emit ~at:now
        (Trace.Flushq { name = t.qname; op = Trace.Q_coalesce; addr; kind = trace_kind kind });
    t.last_ack <- get t partner f_ack;
    now
  end
  else submit_fresh t sink c ~addr ~kind ~hit ~dirty ~slot ~now

type load_conflict = Load_no_conflict | Load_forward of int | Load_wait of int

let load_conflict t ~addr ~now =
  prune t ~now;
  match first_at t addr with
  | -1 -> Load_no_conflict
  | i ->
    (* Forwarding from the FSHR's data buffer is only sound while
       [flush_rdy] is still low (before the release): probes are interlocked
       out then (§5.4.1), so the buffer provably holds the line's current
       data.  Once the release has gone out, a remote store may already have
       superseded the buffered data — the load waits for the ack and takes
       the ordinary miss path. *)
    let tb = get t i f_buf in
    if tb <> no_buffer && Int.max now tb < get t i f_release then Load_forward (Int.max now tb)
    else Load_wait (Int.max now (get t i f_ack))

let store_proceed_at t ~addr ~now =
  prune t ~now;
  match first_at t addr with
  | -1 -> now
  | i ->
    if get t i f_kind = kind_code Message.Wb_flush then Int.max now (get t i f_ack)
    else begin
      (* Clean: may proceed once the FSHR is allocated and, if the line was
         dirty, once the data buffer is filled (§5.3). *)
      let tb = get t i f_buf in
      let alloc = get t i f_alloc in
      Int.max now (if tb <> no_buffer then Int.max alloc tb else alloc)
    end

let line_ack_at t ~addr ~now =
  prune t ~now;
  match first_at t addr with -1 -> now | i -> Int.max now (get t i f_ack)

let block_until t ~addr ~now =
  prune t ~now;
  let until = ref now in
  for i = 0 to t.len - 1 do
    if get t i f_addr = addr && get t i f_alloc <= now && get t i f_release > now then
      until := Int.max !until (get t i f_release)
  done;
  !until

let fence_ready_at t ~now =
  prune t ~now;
  let ready = ref now in
  for i = 0 to t.len - 1 do
    ready := Int.max !ready (get t i f_ack)
  done;
  !ready

let outstanding t ~now =
  prune t ~now;
  t.len

let pendings t =
  let depth = t.p.Params.flush_queue_depth in
  List.init t.len (fun i ->
    let tb = get t i f_buf and ack_at = get t i f_ack and enq_at = get t i f_enq in
    {
      addr = get t i f_addr;
      kind = kind_of_code (get t i f_kind);
      enq_at;
      commit_at = (if depth = 0 then ack_at else enq_at);
      alloc_at = get t i f_alloc;
      buffer_ready_at = (if tb = no_buffer then None else Some tb);
      release_at = get t i f_release;
      ack_at;
    })

let fshrs t = t.fshrs
let queue_occupants t = match t.admission with Some a -> Admission.occupants a | None -> 0

let crash t =
  (* Power failure: in-flight writebacks vanish.  Every conflict/occupancy
     structure must come back empty, or the next run on this system would
     inherit phantom back-pressure (leaked FSHR units, stale queue-departure
     times). *)
  t.len <- 0;
  t.min_ack <- max_int;
  Resource.reset t.fshrs;
  match t.admission with Some a -> Admission.reset a | None -> ()

(* The whole table, stale rows included, so a copy is identical to its
   source slot for slot; [dst]'s table is reused while the sizes match. *)
let copy_into ~src ~dst =
  Resource.copy_into ~src:src.fshrs ~dst:dst.fshrs;
  (match src.admission, dst.admission with
   | Some a, Some b -> Admission.copy_into ~src:a ~dst:b
   | None, None -> ()
   | (Some _ | None), _ -> invalid_arg "Flush_unit.copy_into: queue depths differ");
  if Array.length dst.tbl = Array.length src.tbl then Ints.copy_into ~src:src.tbl ~dst:dst.tbl
  else dst.tbl <- Array.copy src.tbl;
  dst.len <- src.len;
  dst.min_ack <- src.min_ack;
  dst.last_ack <- src.last_ack;
  dst.last_coalesced <- src.last_coalesced;
  Stats.Registry.copy_into ~src:src.stats ~dst:dst.stats
