(** Cycle-stamped structured event tracing across the memory hierarchy.

    A single global sink is installed with {!start} (or {!with_trace}) and
    records typed events into a bounded ring buffer; a listener
    ({!set_listener}) sees every event.  Emission points guard with
    {!enabled} so that an untraced run performs no extra allocation and no
    extra work beyond two atomic reads per potential event; tracing itself
    never changes simulated timing — events carry cycle stamps the model
    already computed, so cycle counts are bit-identical with tracing on and
    off.

    Events map onto one {e track} per component ([l1.0], [fu.0.q],
    [fu.0.fshr3], [port.l1.0], [l2], [l2.mem], [dram], ...); {!Perfetto}
    renders each track as a named thread so runs open directly in
    [ui.perfetto.dev], and {!Latency} matches request start/end events into
    per-class latency histograms. *)

(** {1 Event taxonomy} *)

type wb = Clean | Flush  (** Writeback flavour of a CBO request. *)

type chan = Ch_a | Ch_b | Ch_c | Ch_d  (** TileLink channel. *)

type l1_op =
  | Load_hit
  | Load_miss
  | Load_forward  (** load serviced from an FSHR's filled data buffer (§5.3) *)
  | Load_nack
  | Store_hit
  | Store_miss
  | Store_upgrade  (** Branch → Trunk refill *)
  | Store_nack
  | Evict_clean
  | Evict_dirty
  | Probe_handled
  | Skip_drop  (** §6.1 skip-bit elision: the CBO completed without an FSHR *)
  | Cbo_coalesced

(** Fig. 7 FSHR FSM states, stamped as the walk passes through them. *)
type fshr_state =
  | Fs_meta_write
  | Fs_fill_buffer
  | Fs_release_data
  | Fs_release
  | Fs_release_ack

type fshr_op = Fshr_alloc | Fshr_step of fshr_state | Fshr_free

type q_op = Q_enqueue | Q_dequeue | Q_coalesce

type chan_op = Beats of int | Stall of int

type msg_op = Msg_acquire | Msg_release | Msg_root_release | Msg_root_inval | Msg_probe

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

type mem_op = Mem_read | Mem_write | Mem_persist | Mem_hit | Mem_miss | Mem_evict

type dram_op = Dram_read | Dram_write

type res_op = Res_alloc | Res_free

(** Request classes measured end-to-end by {!Latency}.  [Cls_serve] spans a
    serving-engine request from enqueue (arrival) to persist-complete (its
    group-commit epoch's fence); [Cls_fleet] spans a fleet request from
    intended arrival at the router to fleet-wide acknowledgement (every
    executed replica's epoch committed). *)
type cls =
  | Cls_load_miss
  | Cls_store_miss
  | Cls_cbo_clean
  | Cls_cbo_flush
  | Cls_writeback
  | Cls_serve
  | Cls_fleet

val all_classes : cls list
val cls_name : cls -> string

type event =
  | L1 of { core : int; op : l1_op; addr : int }
  | Fshr of { core : int; idx : int; op : fshr_op; addr : int; kind : wb }
  | Flushq of { name : string; op : q_op; addr : int; kind : wb }
  | Resource of { comp : string; idx : int; op : res_op }
      (** MSHR-style occupancy: one [Res_alloc]/[Res_free] pair per tenancy. *)
  | Channel of { port : string; chan : chan; op : chan_op }
  | Message of { port : string; op : msg_op; addr : int }
  | L2 of { op : l2_op; addr : int }
  | Mem of { name : string; op : mem_op; addr : int }
  | Dram of { op : dram_op; addr : int }
  | Req_start of { id : int; cls : cls; core : int; addr : int }
  | Req_end of { id : int }
  | Meta of { track : string; note : string }
      (** Declares a track so it renders even with no events. *)

val track : event -> string
(** The component track the event belongs to. *)

val event_name : event -> string
val event_args : event -> (string * string) list

(** {1 Ring buffer} *)

type record = { at : int; ev : event }

type t

val create : ?capacity:int -> ?filter:string list -> ?reqs_only:bool -> unit -> t
(** A detached buffer (not installed as the sink) of [capacity] records
    (default 65536).  [filter] is a list of
    track prefixes to keep; empty keeps everything.  With [reqs_only],
    only {!req_start}/{!req_end} spans are recorded once installed:
    {!enabled} reports [false] with no listener, so detail emission sites
    skip event construction entirely — the cheap tracing mode the bench
    harness uses for its latency histograms. *)

val capacity : t -> int

val length : t -> int
(** Live records (at most [capacity]). *)

val dropped : t -> int
(** Records overwritten after the ring wrapped. *)

val records : t -> record list
(** Oldest-first snapshot of the live records. *)

type span = { id : int; cls : cls; core : int; addr : int; t0 : int; t1 : int }
(** A matched request: its start's fields, opened at [t0], closed at [t1]. *)

val fold_spans :
  t -> 'a -> span:('a -> span -> 'a) -> other:('a -> record -> 'a) -> 'a * int * int
(** Fold the live records oldest first, pairing {!Req_start}/{!Req_end} by
    id: [span] sees each matched request at its end record, [other] every
    record that is neither.  Also returns the unmatched starts and ends
    (a partner lost to ring wraparound or a track filter); a second start
    under an open id replaces the first, which is then lost. *)

val add : t -> at:int -> event -> unit
(** Record directly into a buffer (respects its filter and [reqs_only]). *)

(** {1 The installed sink} *)

val enabled : unit -> bool
(** True while a sink that records detail events ([false] for a
    [reqs_only] sink) or a listener is installed: a listener makes this
    true even over a [reqs_only] sink.  Emission sites must guard event
    construction with this so the disabled path allocates nothing. *)

val start : ?capacity:int -> ?filter:string list -> ?reqs_only:bool -> unit -> t
(** Install a fresh sink (replacing any previous one) and return it. *)

val stop : unit -> t option
(** Uninstall and return the sink, if one was installed. *)

val set_listener : (at:int -> event -> unit) option -> unit
(** Install ([Some]) or remove ([None]) this domain's listener, which
    {!emit} passes every event, with or without a sink installed. *)

val emit : at:int -> event -> unit
(** Record into the installed sink and pass to the listener. *)

val req_start : at:int -> cls:cls -> core:int -> addr:int -> int
(** Open a request span, returning the id to close it with.  Returns [-1]
    (and records nothing) when disabled. *)

val req_end : at:int -> int -> unit
(** Close a request span opened by {!req_start}; no-op on id [-1]. *)

val with_trace : ?capacity:int -> ?filter:string list -> (unit -> 'a) -> 'a * t
(** [with_trace f] installs a sink around [f] and returns its buffer;
    the sink is uninstalled even if [f] raises. *)
