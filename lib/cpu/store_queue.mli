(** The store-queue (STQ) timing model of §3.2.

    BOOM's STQ lets a store retire as soon as the data cache accepts it —
    the entry drains in the background while the core runs ahead.  The LSU
    inserts each store's background completion time here; the only stalls
    the core sees are a full queue (capacity 32 in SonicBOOM) and fences,
    which must wait for the queue to drain.

    Values are completion cycles (non-negative) computed by the data cache;
    the queue itself is pure bookkeeping over them, in a ring of
    [entries] slots with O(1) operations. *)

type t

val create : entries:int -> t

val insert : t -> now:int -> drain_at:int -> int
(** Insert a store draining at [drain_at]; returns the cycle the insert
    (i.e. the store's commit) happens — [now] unless the queue is full, in
    which case it is delayed until the oldest entry drains. *)

val drained_at : t -> now:int -> int
(** Earliest cycle (≥ [now]) by which every current entry has drained —
    what a fence waits for. *)

val occupancy : t -> now:int -> int
(** Entries still draining at [now]. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] hold [src]'s draining entries; the capacities must
    match. *)
