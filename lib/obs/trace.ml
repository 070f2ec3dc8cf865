(* Cycle-stamped structured event tracing.

   One global trace sink and one listener, installed for a run.  Every
   emission point in the hierarchy is guarded by [enabled ()]; with neither
   installed the guard is two atomic reads and the event payload is never
   allocated, so an untraced run does exactly the work it did before this
   layer existed.  Recording never influences timing: events carry the
   cycle stamps the simulator already computed, so cycle counts are
   bit-identical with tracing on and off. *)

type wb = Clean | Flush

let wb_name = function Clean -> "clean" | Flush -> "flush"

type chan = Ch_a | Ch_b | Ch_c | Ch_d

let chan_name = function Ch_a -> "a" | Ch_b -> "b" | Ch_c -> "c" | Ch_d -> "d"

type l1_op =
  | Load_hit
  | Load_miss
  | Load_forward
  | Load_nack
  | Store_hit
  | Store_miss
  | Store_upgrade
  | Store_nack
  | Evict_clean
  | Evict_dirty
  | Probe_handled
  | Skip_drop
  | Cbo_coalesced

let l1_op_name = function
  | Load_hit -> "load_hit"
  | Load_miss -> "load_miss"
  | Load_forward -> "load_forward"
  | Load_nack -> "load_nack"
  | Store_hit -> "store_hit"
  | Store_miss -> "store_miss"
  | Store_upgrade -> "store_upgrade"
  | Store_nack -> "store_nack"
  | Evict_clean -> "evict_clean"
  | Evict_dirty -> "evict_dirty"
  | Probe_handled -> "probe"
  | Skip_drop -> "skip_drop"
  | Cbo_coalesced -> "cbo_coalesced"

(* The Fig. 7 FSHR FSM states (the walk a dequeued writeback performs). *)
type fshr_state =
  | Fs_meta_write
  | Fs_fill_buffer
  | Fs_release_data
  | Fs_release
  | Fs_release_ack

let fshr_state_name = function
  | Fs_meta_write -> "meta_write"
  | Fs_fill_buffer -> "fill_buffer"
  | Fs_release_data -> "root_release_data"
  | Fs_release -> "root_release"
  | Fs_release_ack -> "root_release_ack"

type fshr_op = Fshr_alloc | Fshr_step of fshr_state | Fshr_free

let fshr_op_name = function
  | Fshr_alloc -> "fshr_alloc"
  | Fshr_step s -> "fshr_" ^ fshr_state_name s
  | Fshr_free -> "fshr_free"

type q_op = Q_enqueue | Q_dequeue | Q_coalesce

let q_op_name = function
  | Q_enqueue -> "enqueue"
  | Q_dequeue -> "dequeue"
  | Q_coalesce -> "coalesce"

type chan_op = Beats of int | Stall of int

type msg_op = Msg_acquire | Msg_release | Msg_root_release | Msg_root_inval | Msg_probe

let msg_op_name = function
  | Msg_acquire -> "acquire"
  | Msg_release -> "release"
  | Msg_root_release -> "root_release"
  | Msg_root_inval -> "root_inval"
  | Msg_probe -> "probe"

type l2_op =
  | L2_hit
  | L2_miss
  | L2_probe
  | L2_release
  | L2_root_release
  | L2_root_inval
  | L2_writeback
  | L2_trivial_skip
  | L2_evict

let l2_op_name = function
  | L2_hit -> "hit"
  | L2_miss -> "miss"
  | L2_probe -> "probe"
  | L2_release -> "release"
  | L2_root_release -> "root_release"
  | L2_root_inval -> "root_inval"
  | L2_writeback -> "writeback"
  | L2_trivial_skip -> "trivial_skip"
  | L2_evict -> "evict"

type mem_op = Mem_read | Mem_write | Mem_persist | Mem_hit | Mem_miss | Mem_evict

let mem_op_name = function
  | Mem_read -> "read"
  | Mem_write -> "write"
  | Mem_persist -> "persist"
  | Mem_hit -> "hit"
  | Mem_miss -> "miss"
  | Mem_evict -> "evict"

type dram_op = Dram_read | Dram_write

let dram_op_name = function Dram_read -> "read" | Dram_write -> "write"

type res_op = Res_alloc | Res_free

let res_op_name = function Res_alloc -> "alloc" | Res_free -> "free"

(* End-to-end request classes for the latency histograms. *)
type cls =
  | Cls_load_miss
  | Cls_store_miss
  | Cls_cbo_clean
  | Cls_cbo_flush
  | Cls_writeback
  | Cls_serve
  | Cls_fleet

let all_classes =
  [ Cls_load_miss; Cls_store_miss; Cls_cbo_clean; Cls_cbo_flush; Cls_writeback; Cls_serve;
    Cls_fleet ]

let cls_name = function
  | Cls_load_miss -> "load_miss"
  | Cls_store_miss -> "store_miss"
  | Cls_cbo_clean -> "cbo.clean"
  | Cls_cbo_flush -> "cbo.flush"
  | Cls_writeback -> "writeback"
  | Cls_serve -> "serve"
  | Cls_fleet -> "fleet"

type event =
  | L1 of { core : int; op : l1_op; addr : int }
  | Fshr of { core : int; idx : int; op : fshr_op; addr : int; kind : wb }
  | Flushq of { name : string; op : q_op; addr : int; kind : wb }
  | Resource of { comp : string; idx : int; op : res_op }
  | Channel of { port : string; chan : chan; op : chan_op }
  | Message of { port : string; op : msg_op; addr : int }
  | L2 of { op : l2_op; addr : int }
  | Mem of { name : string; op : mem_op; addr : int }
  | Dram of { op : dram_op; addr : int }
  | Req_start of { id : int; cls : cls; core : int; addr : int }
  | Req_end of { id : int }
  | Meta of { track : string; note : string }

(* The Perfetto track an event renders on: one per component. *)
let track = function
  | L1 { core; _ } -> Printf.sprintf "l1.%d" core
  | Fshr { core; idx; _ } -> Printf.sprintf "fu.%d.fshr%d" core idx
  | Flushq { name; _ } -> name
  | Resource { comp; _ } -> comp
  | Channel { port; _ } -> "port." ^ port
  | Message { port; _ } -> "port." ^ port
  | L2 _ -> "l2"
  | Mem { name; _ } -> name
  | Dram _ -> "dram"
  | Req_start { cls; _ } -> "req." ^ cls_name cls
  | Req_end _ -> "req"
  | Meta { track; _ } -> track

let event_name = function
  | L1 { op; _ } -> l1_op_name op
  | Fshr { op; _ } -> fshr_op_name op
  | Flushq { op; _ } -> q_op_name op
  | Resource { op; _ } -> res_op_name op
  | Channel { chan; op; _ } -> (
    match op with
    | Beats _ -> chan_name chan ^ "_beats"
    | Stall _ -> chan_name chan ^ "_stall")
  | Message { op; _ } -> msg_op_name op
  | L2 { op; _ } -> l2_op_name op
  | Mem { op; _ } -> mem_op_name op
  | Dram { op; _ } -> dram_op_name op
  | Req_start { cls; _ } -> cls_name cls ^ "_start"
  | Req_end _ -> "req_end"
  | Meta { note; _ } -> note

(* Key/value annotations rendered into the exporter's [args] object. *)
let event_args = function
  | L1 { addr; _ } -> [ "addr", Printf.sprintf "%#x" addr ]
  | Fshr { addr; kind; _ } ->
    [ "addr", Printf.sprintf "%#x" addr; "kind", wb_name kind ]
  | Flushq { addr; kind; _ } ->
    [ "addr", Printf.sprintf "%#x" addr; "kind", wb_name kind ]
  | Resource { idx; _ } -> [ "unit", string_of_int idx ]
  | Channel { op = Beats n; _ } -> [ "beats", string_of_int n ]
  | Channel { op = Stall n; _ } -> [ "cycles", string_of_int n ]
  | Message { addr; _ } -> [ "addr", Printf.sprintf "%#x" addr ]
  | L2 { addr; _ } -> [ "addr", Printf.sprintf "%#x" addr ]
  | Mem { addr; _ } -> [ "addr", Printf.sprintf "%#x" addr ]
  | Dram { addr; _ } -> [ "addr", Printf.sprintf "%#x" addr ]
  | Req_start { id; core; addr; _ } ->
    [ "id", string_of_int id; "core", string_of_int core; "addr", Printf.sprintf "%#x" addr ]
  | Req_end { id } -> [ "id", string_of_int id ]
  | Meta _ -> []

type record = { at : int; ev : event }

type t = {
  capacity : int;
  buf : record array;
  mutable len : int;  (* live records, <= capacity *)
  mutable next : int;  (* next insertion slot (circular) *)
  mutable dropped : int;  (* records overwritten after wraparound *)
  mutable next_id : int;  (* request-id generator *)
  filter : string list;  (* track prefixes to keep; [] = keep all *)
  reqs_only : bool;
      (* Record only [Req_start]/[Req_end] spans: [enabled ()] reports
         [false] (with no listener) so every detail emission site skips the
         event allocation, while the latency histograms still see exactly
         the spans they would under full tracing. *)
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) ?(filter = []) ?(reqs_only = false) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  {
    capacity;
    buf = Array.make capacity { at = 0; ev = Meta { track = ""; note = "" } };
    len = 0;
    next = 0;
    dropped = 0;
    next_id = 0;
    filter;
    reqs_only;
  }

let capacity t = t.capacity
let length t = t.len
let dropped t = t.dropped

let keep t ev =
  (match ev with Req_start _ | Req_end _ -> true | _ -> not t.reqs_only)
  &&
  match t.filter with
  | [] -> true
  | prefixes ->
    let tr = track ev in
    List.exists
      (fun p ->
        String.length p <= String.length tr && String.sub tr 0 (String.length p) = p)
      prefixes

let add t ~at ev =
  if keep t ev then begin
    t.buf.(t.next) <- { at; ev };
    t.next <- (t.next + 1) mod t.capacity;
    if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

(* Oldest-first snapshot. *)
let records t =
  let start = (t.next - t.len + t.capacity) mod t.capacity in
  List.init t.len (fun i -> t.buf.((start + i) mod t.capacity))

let iter t f = List.iter f (records t)

let fold t init f = List.fold_left f init (records t)

(* == The installed sink ================================================= *)

(* The sink is *domain-local*: each domain of the parallel experiment
   engine installs and drains its own trace independently, so jobs running
   concurrently on pool domains never share a ring buffer.  On the main
   domain this behaves exactly like the previous single global sink. *)
let current : t Sink.t = Sink.create ()

(* [emit] hands the listener every event, ring or no ring: [Metrics]
   windows the hierarchy's series off it. *)
let listener : (at:int -> event -> unit) Sink.t = Sink.create ()

let[@inline] enabled () =
  Option.is_some (Sink.get listener)
  || match Sink.get current with Some t -> not t.reqs_only | None -> false

let start ?capacity ?filter ?reqs_only () =
  let t = create ?capacity ?filter ?reqs_only () in
  Sink.set current (Some t);
  t

let stop () = Sink.take current

let set_listener f = Sink.set listener f

let[@inline] emit ~at ev =
  (match Sink.get current with None -> () | Some t -> add t ~at ev);
  match Sink.get listener with None -> () | Some f -> f ~at ev

(* Request spans: [req_start] hands out the matching id (or [-1] with no
   ring installed, in which case [req_end] is a no-op too). *)
let req_start ~at ~cls ~core ~addr =
  match Sink.get current with
  | None -> -1
  | Some t ->
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    emit ~at (Req_start { id; cls; core; addr });
    id

let req_end ~at id = if id >= 0 then emit ~at (Req_end { id })

let with_trace ?capacity ?filter f =
  let t = start ?capacity ?filter () in
  let finally () =
    match Sink.get current with
    | Some x when x == t -> ignore (stop ())
    | Some _ | None -> ()
  in
  Fun.protect ~finally (fun () ->
    let r = f () in
    r, t)
