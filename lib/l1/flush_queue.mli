(** The flush unit's request queue (§5.2) with the interference bookkeeping
    of §5.4.

    Entries snapshot the cache-line state (hit?, dirty?) at enqueue time so
    the FSHR need not re-read the metadata array at dequeue.  Because an
    unspecified amount of time passes between enqueue and dequeue, probes
    from other cores (§5.4.1) and evictions by the MSHRs (§5.4.2) must be
    able to {e invalidate} pending entries — downgrade their snapshot — so
    the request is executed with valid metadata.  Dependent CBO.X requests
    may {e coalesce} with a pending entry of the same kind to the same line
    (§5.3), eliding redundant writebacks already in hardware. *)

open Skipit_tilelink

type entry = {
  addr : int;  (** Line base address. *)
  kind : Message.wb_kind;
  mutable hit : bool;
  mutable dirty : bool;
  enq_at : int;
  mutable coalesced : int;  (** Later CBO.X merged into this entry. *)
}

type t

val create : ?name:string -> depth:int -> unit -> t
(** [name] labels the queue's observability track (default ["flushq"];
    the flush unit uses ["fu.<core>.q"]). *)

val name : t -> string
val depth : t -> int

(** Map a TileLink writeback kind onto its trace-event encoding. *)
val trace_kind : Skipit_tilelink.Message.wb_kind -> Skipit_obs.Trace.wb
val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val enqueue : t -> entry -> bool
(** [false] when full — the data cache must nack the LSU (§5.2). *)

val dequeue : t -> entry option
(** FIFO head, for FSHR allocation. *)

val first : t -> entry
(** The oldest entry, without removing it and without an option.  Raises
    [Invalid_argument] on an empty queue. *)

val drop_first : t -> unit
(** Remove the oldest entry.  Raises [Invalid_argument] on an empty
    queue. *)

val probe_invalidate : t -> addr:int -> cap:Perm.t -> unit
(** §5.4.1 [probe_invalidate] signal: a coherence probe capping the line to
    [cap] resets the hit and/or dirty bits of every pending entry for that
    line (to [Nothing]: line gone, clear both; to [Branch]: dirty data was
    handed over, clear dirty). *)

val evict_invalidate : t -> addr:int -> unit
(** §5.4.2: the line was evicted by the MSHRs; pending entries lose hit and
    dirty. *)

val find_coalescible : t -> addr:int -> kind:Message.wb_kind -> entry option
(** A pending entry the new request may merge with: same line, same kind
    (§5.3 allows clean-with-clean and flush-with-flush only). *)

val record_coalesce : entry -> unit

val to_list : t -> entry list
(** Head first. *)

val copy_entry : entry -> entry
(** A fresh entry with the same fields. *)

val copy_into : entry:(entry -> entry) -> src:t -> dst:t -> unit
(** Make [dst] queue [entry e] for each entry [e] of [src], in order,
    dropping what [dst] held.  [entry] lets an owner that shares entries
    with another structure point both at one copy; {!copy_entry} is the
    plain deep copy.  [dst] keeps its name and depth. *)
