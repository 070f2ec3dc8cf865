(** The timed flush unit (§5.2, Fig. 6): flush queue + FSHRs + flush counter.

    One instance lives in each L1 data cache.  The data cache performs the
    metadata lookup and the Skip-It fast drop; everything that happens after
    a CBO.X is accepted — buffering, back-pressure when the queue is full,
    FSHR allocation, walking the Fig. 7 FSM, sending the RootRelease and
    waiting for its ack — is computed here.

    The timing model is transactional: a submitted request's whole schedule
    (commit, FSHR allocation, buffer fill, release, ack) is computed at
    submit time from current resource occupancy and kept as one row of a
    table of ints (live requests in submission order); the rows then answer
    the §5.3 interaction queries (may a dependent load forward? when may a
    dependent store proceed? when must a probe wait for [flush_rdy]?) and
    the fence query backed by the flush counter.  Submitting and querying
    allocate nothing once the table has grown to the live request count. *)

open Skipit_tilelink
open Skipit_cache

type t

val create : Params.t -> core:int -> t

(** How the flush unit reaches its data cache while it walks an FSHR: a
    record of closed functions taking the cache as ['c], so a submission
    allocates no closure.  [slot] is the cache's handle on the line (passed
    through {!submit} untouched).  [apply_meta] applies the Fig. 7 metadata
    effect; [send] performs the RootRelease against the L2 — carrying the
    line, read from the cache's storage at the slot, iff [with_data] — and
    returns the ack arrival time. *)
type 'c sink = {
  apply_meta : 'c -> slot:int -> Fshr_fsm.meta_effect -> unit;
  send : 'c -> slot:int -> addr:int -> kind:Message.wb_kind -> with_data:bool -> now:int -> int;
}

val submit :
  t ->
  'c sink ->
  'c ->
  addr:int ->
  kind:Message.wb_kind ->
  hit:bool ->
  dirty:bool ->
  slot:int ->
  last_line_change:int ->
  now:int ->
  int
(** [submit t sink c] a CBO.X that reached the data cache [c] at [now]
    with the given metadata snapshot, and return the cycle the instruction
    commits; the writeback's ack is parked in {!ack_at}.  The dirty line
    ([hit && dirty]) is not captured: [sink.send] reads it from the cache
    when the FSHR releases it, which happens within this call.
    [last_line_change] is the last cycle the line's state was mutated —
    coalescing is legal only with requests enqueued after that (§5.3); a
    merged request ({!last_coalesced}) commits at [now] and rides on its
    partner's ack.  Builds no record, option or list node. *)

val ack_at : t -> int
(** The RootReleaseAck cycle of the most recent {!submit}'s writeback (its
    partner's when it merged), by which the line is persisted. *)

val last_coalesced : t -> bool
(** Whether the most recent {!submit} merged with a queued request. *)

(** §5.3 load rule for an L1 miss on a line with a pending writeback. *)
type load_conflict =
  | Load_no_conflict
  | Load_forward of int  (** Forward from the FSHR data buffer, ready at [t]. *)
  | Load_wait of int  (** Nacked until [t] (buffer unfilled / FSHR busy). *)

val load_conflict : t -> addr:int -> now:int -> load_conflict

val store_proceed_at : t -> addr:int -> now:int -> int
(** §5.3 store rule: the earliest cycle, [now] or later, a store to the
    line may proceed — [now] unless a pending writeback forces it to
    wait. *)

val line_ack_at : t -> addr:int -> now:int -> int
(** The ack of the line's oldest pending writeback, or [now] if it is
    later or there is none. *)

val block_until : t -> addr:int -> now:int -> int
(** The §5.4 interlock: the earliest time a coherence probe of [addr]
    (§5.4.1) or an MSHR-driven eviction of it (§5.4.2) may proceed —
    [now] unless an FSHR holds the line with [flush_rdy] low (allocated but
    not yet past the release), in which case it waits for the release.
    The hardware also downgrades queued requests' metadata snapshots
    ([probe_invalidate]); that has no timing effect here, because each
    request's FSHR plan is fixed at submit. *)

val fence_ready_at : t -> now:int -> int
(** Flush counter (§5.2/§5.3): earliest time with no pending writebacks —
    fences may only commit once this has passed. *)

val outstanding : t -> now:int -> int
(** Pending writebacks (the flush counter's value) at [now]. *)

(** A record view of one live request, built on demand (tests). *)
type pending = {
  addr : int;  (** Line base address. *)
  kind : Message.wb_kind;
  enq_at : int;  (** Admitted to the flush queue. *)
  commit_at : int;  (** When the instruction is committable (buffered). *)
  alloc_at : int;  (** FSHR allocation (dequeue) time. *)
  buffer_ready_at : int option;  (** [Some t] iff the data buffer is filled, at [t]. *)
  release_at : int;  (** RootRelease sent; [flush_rdy] raised hereafter. *)
  ack_at : int;  (** RootReleaseAck received; FSHR freed. *)
}

val pendings : t -> pending list
(** The live requests, oldest first, as the last query left them (one
    whose ack has passed stays until a query at or after it). *)

val fshrs : t -> Skipit_sim.Resource.t
(** The FSHR occupancy tracker (audit/conservation checks). *)

val queue_occupants : t -> int
(** Requests admitted to the flush queue and not yet dequeued into an FSHR
    (0 when the queue has no buffering). *)

val crash : t -> unit
(** Power failure: drop every pending request and reset FSHR occupancy
    and queue admissions, so a subsequent run on the same system starts
    from empty flush machinery. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst]'s flush machinery equal to [src]'s, overwriting what [dst]
    held: FSHR occupancy, queue admissions, the pending table (its stale
    rows included), the parked results and the counters.
    Both units must come from the same parameters. *)

val note_skip_drop : t -> unit
(** Record a Skip-It fast drop (the request never reached the queue). *)

val skip_dropped : t -> int
(** Writebacks elided by the skip bit so far. *)

val submitted : t -> int
(** Writebacks submitted to the flush queue so far. *)

val stats : t -> Skipit_sim.Stats.Registry.t
(** ["submitted"], ["coalesced"], ["skip_dropped"], ["fshr_allocs"],
    ["wb_with_data"], ["wb_without_data"]. *)
