(** The timed flush unit (§5.2, Fig. 6): flush queue + FSHRs + flush counter.

    One instance lives in each L1 data cache.  The data cache performs the
    metadata lookup and the Skip-It fast drop; everything that happens after
    a CBO.X is accepted — buffering, back-pressure when the queue is full,
    FSHR allocation, walking the Fig. 7 FSM, sending the RootRelease and
    waiting for its ack — is computed here.

    The timing model is transactional: a submitted request's whole schedule
    (commit, FSHR allocation, buffer fill, release, ack) is computed at
    submit time from current resource occupancy; the resulting {!pending}
    record then answers the §5.3 interaction queries (may a dependent load
    forward? when may a dependent store proceed? when must a probe wait for
    [flush_rdy]?) and the fence query backed by the flush counter. *)

open Skipit_tilelink
open Skipit_cache

type pending = {
  entry : Flush_queue.entry;
      (** Bookkeeping snapshot (mutable hit/dirty for §5.4 invalidations). *)
  commit_at : int;  (** When the instruction is committable (buffered). *)
  alloc_at : int;  (** FSHR allocation (dequeue) time. *)
  meta_write_at : int option;
      (** [Some t] iff the request rewrites the line metadata, at [t] — the
          point after which its line state has changed (bounds coalescing,
          §5.3). *)
  buffer_ready_at : int option;  (** [Some t] iff the data buffer is filled, at [t]. *)
  release_at : int;  (** RootRelease sent; [flush_rdy] raised hereafter. *)
  ack_at : int;  (** RootReleaseAck received; FSHR freed. *)
}

type submit_result =
  | Coalesced of { commit_at : int; ack_at : int }
      (** Merged with a pending request of the same kind to the same line
          (§5.3); the instruction commits immediately and its completion
          rides on the pending writeback. *)
  | Accepted of pending

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
  submit_result
(** [submit t sink c] a CBO.X that reached the data cache [c] at [now]
    with the given metadata snapshot.  The dirty line ([hit && dirty]) is
    not captured: [sink.send] reads it from the cache when the FSHR
    releases it, which happens within this call.  [last_line_change] is the
    last cycle the line's state was mutated — coalescing is legal only with
    entries enqueued after that (§5.3).  The FSHR walk builds no path and
    allocates only the request's pending record. *)

val find_pending : t -> addr:int -> now:int -> pending option
(** The in-flight request for this line, if any (queue or FSHR). *)

(** §5.3 load rule for an L1 miss on a line with a pending writeback. *)
type load_conflict =
  | Load_no_conflict
  | Load_forward of int  (** Forward from the FSHR data buffer, ready at [t]. *)
  | Load_wait of int  (** Nacked until [t] (buffer unfilled / FSHR busy). *)

val load_conflict : t -> addr:int -> now:int -> load_conflict

val store_proceed_at : t -> addr:int -> now:int -> int option
(** §5.3 store rule: [Some t] when a pending writeback forces the store to
    wait until [t] ([t = now] if the clean-with-filled-buffer conditions
    already hold); [None] when there is no pending writeback on the line. *)

val probe_block_until : t -> addr:int -> cap:Perm.t -> now:int -> int
(** §5.4.1: the earliest time a coherence probe of [addr] may proceed —
    [now] unless an FSHR holds the line with [flush_rdy] low (allocated but
    not yet past the release), in which case the probe waits for
    [release_at].  Also applies [probe_invalidate] to queued entries. *)

val evict_block_until : t -> addr:int -> now:int -> int
(** §5.4.2: same interlock for MSHR-driven evictions ([wb_rdy]/[flush_rdy]);
    invalidates queued entries for the line. *)

val fence_ready_at : t -> now:int -> int
(** Flush counter (§5.2/§5.3): earliest time with no pending writebacks —
    fences may only commit once this has passed. *)

val outstanding : t -> now:int -> int
(** Pending writebacks (the flush counter's value) at [now]. *)

val fshrs : t -> Skipit_sim.Resource.t
(** The FSHR occupancy tracker (audit/conservation checks). *)

val queue_occupants : t -> int
(** Requests admitted to the flush queue and not yet dequeued into an FSHR
    (0 when the queue has no buffering). *)

val crash : t -> unit
(** Power failure: drop every pending request and reset FSHR occupancy,
    queue admissions and booked entries, so a subsequent run on the same
    system starts from empty flush machinery. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst]'s flush machinery equal to [src]'s, overwriting what [dst]
    held: FSHR occupancy, queue admissions, pending requests, the booked
    queue and the counters.  An entry that is both pending and booked is
    copied once and shared by the two, as in [src].  Both units must come
    from the same parameters. *)

val note_skip_drop : t -> unit
(** Record a Skip-It fast drop (the request never reached the queue). *)

val skip_dropped : t -> int
(** Writebacks elided by the skip bit so far. *)

val submitted : t -> int
(** Writebacks submitted to the flush queue so far. *)

val stats : t -> Skipit_sim.Stats.Registry.t
(** ["submitted"], ["coalesced"], ["skip_dropped"], ["fshr_allocs"],
    ["wb_with_data"], ["wb_without_data"]. *)
