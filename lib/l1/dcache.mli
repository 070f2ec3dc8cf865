(** The SonicBOOM L1 data cache (§3.3) extended with the flush unit (§5) and
    the Skip-It bit (§6).

    One instance per core.  Entry points take the cycle [now] at which the
    LSU fires the request and return the completion time computed by the
    transaction-level model (hits, MSHR-mediated refills including victim
    eviction through the writeback unit, CBO.X through the flush unit, and
    coherence probes from the L2).

    Skip-bit maintenance (§6.1/§6.2):
    - install on Grant: skip := ¬GrantDataDirty;
    - CBO.CLEAN writeback completed: skip := true (the line is persisted);
    - probe that extracts dirty data: skip := false (the L2 copy is now
      dirty);
    - stores set the dirty bit, rendering the skip bit temporarily invalid
      (§6.2's definition of validity) without changing it.

    The bit is maintained unconditionally; [Params.skip_it] only gates the
    fast-drop of redundant writebacks, so the ablation benches compare pure
    policy. *)

open Skipit_tilelink
open Skipit_cache

type line = {
  mutable perm : Perm.t;
  mutable dirty : bool;
  mutable skip : bool;
  data : int array;
}
(** Snapshot of a line's state (see {!line_state}); the live state is kept
    struct-of-arrays internally, so mutating a snapshot has no effect on
    the cache. *)

type t

val create : Params.t -> core:int -> port:Port.t -> t
(** [create p ~core ~port] builds the cache and binds it as the {e client}
    agent of [port]: all A/C-channel traffic (Acquire, Release, RootRelease,
    RootInval) leaves through the port, and the port's manager (the L2)
    reaches back in via B-channel probes.  The manager side is connected
    separately by the system builder. *)

val core : t -> int
val params : t -> Params.t

val load_word : t -> addr:int -> now:int -> int
(** The loaded value; the completion time is parked in the {!done_at}
    scratch slot.  Handles §5.3 interactions with pending writebacks:
    forwarding from a filled FSHR buffer, or nack-stall until the FSHR
    completes.  An L1 hit performs zero minor-heap allocation. *)

val store : t -> addr:int -> value:int -> now:int -> int
(** Completion time.  Applies the §5.3 store conditions against pending
    writebacks before proceeding. *)

val cas_word : t -> addr:int -> expected:int -> desired:int -> now:int -> bool
(** Atomic compare-and-swap (AMO); acquires write permission like a store.
    Returns success and parks the completion time in {!done_at}. *)

val done_at : t -> int
(** Completion cycle of the most recent {!load_word}/{!cas_word} on this
    cache, or the persist cycle of the most recent {!cbo}.  Only meaningful
    immediately after one of those calls (the simulator is single-threaded
    per system, so there is no race). *)

val cbo : t -> addr:int -> kind:Message.wb_kind -> now:int -> int
(** CBO.CLEAN / CBO.FLUSH: the cycle the instruction leaves the STQ
    (committable).  The cycle the writeback is persisted (RootReleaseAck;
    the commit cycle itself for a Skip-It fast drop) is parked in
    {!done_at}.  Whether it was dropped or merged shows in the flush unit's
    [skip_dropped] and [coalesced] counters. *)

val cbo_inval : t -> addr:int -> now:int -> int
(** CBO.INVAL (CMO spec): discard every cached copy of the line — local L1,
    other L1s and the L2 — without writing anything back.  Dirty data is
    forfeited by definition.  Returns completion time (synchronous: the
    invalidation is a coherence action, not a buffered writeback). *)

val cbo_zero : t -> addr:int -> now:int -> int
(** CBO.ZERO (CMO spec): obtain write permission and set the whole line to
    zero, leaving it dirty in the L1. *)

val fence : t -> now:int -> int
(** FENCE RW,RW extended per §5.3: commits only once the flush counter
    reaches zero; returns completion time. *)

val handle_probe :
  t -> addr:int -> cap:Perm.t -> now:int -> into:int array -> off:int -> Port.Reply.t
(** Channel-B probe from the L2: blocks on [flush_rdy] (§5.4.1), downgrades
    the line, hands back dirty data by writing it into [into] from word
    [off].  The reply is the ProbeAck's arrival at the L2, flagged when
    data was handed back.  Reached through the port's client binding in
    normal operation; exposed for direct-drive tests. *)

val peek_word : t -> int -> int
(** Functional read through this cache (falls back to L2/DRAM). *)

val line_state : t -> int -> line option
(** Metadata snapshot of the line, if present (tests). *)

val held_lines : t -> (int * Perm.t) list
(** All (line address, permission) pairs — for inclusion checking. *)

(** {2 Slot view}

    Read-only access to the live line state by tag-store slot id, for
    audits that visit every cached line: no snapshot records, no copies.
    {!held_lines} lists the valid slots in descending id order. *)

val slots : t -> int
(** Slot count; ids range over [0 .. slots t - 1]. *)

val slot_valid : t -> int -> bool

val find_slot : t -> int -> int
(** Slot id holding [addr]'s line, or [-1]. *)

val slot_addr : t -> int -> int
(** Line base address of a valid slot. *)

val slot_perm : t -> int -> Perm.t
val slot_dirty : t -> int -> bool
val slot_skip : t -> int -> bool

val slot_word : t -> int -> int -> int
(** [slot_word t id w]: word [w] of the line in slot [id]. *)

val flush_unit : t -> Flush_unit.t
val stats : t -> Skipit_sim.Stats.Registry.t

val mshrs : t -> Skipit_sim.Resource.t
(** MSHR occupancy tracker (audit/conservation checks). *)

val wbu : t -> Skipit_sim.Resource.t
(** Writeback-unit occupancy tracker (audit/conservation checks). *)

val crash : t -> unit
(** Volatile contents vanish, and so do all in-flight requests: MSHR, WBU
    and flush-unit occupancy are reset so a subsequent run on the same
    system starts with empty machinery (no leaked units). *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] equal to [src], overwriting what [dst] held: lines,
    metadata, MSHR/WBU occupancy, the flush unit, last-change stamps,
    counters and [done_at].  The port is not copied: it belongs to the
    wiring, whose owner copies it.  Both caches must come from the same
    parameters. *)
