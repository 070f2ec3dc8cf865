(** The SiFive-style inclusive last-level cache (§3.4, §5.5, §6.1).

    Acts as the manager for all L1 clients and as a client of DRAM.  Holds a
    full-map directory per line, enforces inclusion (an L2 eviction probes
    and revokes every L1 copy), merges dirty data handed back by probes, and
    implements the paper's extensions:

    - {b RootRelease handling} (§5.5): on [RootReleaseFlush] it recursively
      probes every other owner and revokes permissions; on
      [RootReleaseClean] it probes only a foreign Trunk owner.  Dirty data —
      whether carried by the request, already present, or extracted by the
      probes — is then released to DRAM.  If the line is dirty nowhere, the
      DRAM write is {e trivially skipped} via the L2 dirty bit (toggle
      [Params.l2_trivial_skip]).  Completion is acknowledged with
      [RootReleaseAck].
    - {b GrantDataDirty} (§6.1): Acquire responses report whether the L2
      block is dirty so the L1 can maintain its skip bit.

    Each L1 client is attached through a typed {!Skipit_tilelink.Port}: the
    system builder calls {!connect_client} once per core, which binds this
    cache as the port's manager agent and records the port so B-channel
    probes for that core travel back through it.  This keeps the library
    independent of the L1 implementation while every message crosses a
    counted boundary.

    Timing: all entry points take [now] = the cycle the message leaves the
    client, and return completion times that include link traversal, beat
    counts, per-bank MSHR/ListBuffer queueing, tag and data-slice occupancy,
    probe round trips and DRAM latency. *)

open Skipit_tilelink
open Skipit_cache

type t

val create : Params.t -> backend:Skipit_tilelink.Port.Memside.t -> t
(** [backend] is DRAM itself ({!Backend.of_dram}) or a memory-side L3
    ({!Memside_cache.backend}).  [Params.l2_banks] splits the cache into
    that many address-interleaved NUCA banks (line address mod banks),
    each with its own MSHR file, ListBuffer, directory store and
    BankedStore slices; 1 (the default) is bit-identical to the
    monolithic cache. *)

val connect_client : t -> core:int -> Port.t -> unit
(** Bind this cache as the manager agent of the port and remember it as the
    probe path for [core].  Must be called exactly once per core by the
    system builder before any traffic; raises [Invalid_argument] on a
    duplicate or out-of-range core. *)

val backend : t -> Skipit_tilelink.Port.Memside.t
(** The memory-side port this cache was created over. *)

val acquire :
  t ->
  core:int ->
  addr:int ->
  grow:Perm.grow ->
  now:int ->
  into:int array ->
  off:int ->
  Port.Reply.t
(** Channel-A AcquireBlock.  May recursively probe other owners and/or evict
    an L2 victim (probing its owners and writing dirty data back to DRAM).
    The granted line (at the requested permission) is copied once into
    [into] from word [off]: from the directory on a hit, from the line just
    read below on a miss.  The reply is the cycle the Grant(Data) finishes
    arriving at the L1, flagged when it is GrantDataDirty.  Allocates only
    the directory entry of a fill. *)

val release :
  t -> core:int -> addr:int -> shrink:Perm.shrink -> data:int array -> off:int -> now:int -> int
(** Channel-C voluntary Release(Data) from an L1 writeback unit; returns the
    ReleaseAck arrival time.  A data-bearing release ({!Port.carries_data})
    has the line in [data] from word [off]. *)

val root_release :
  t -> core:int -> addr:int -> kind:Message.wb_kind -> data:int array -> off:int -> now:int -> int
(** The paper's new channel-C message (§5.1/§5.5); returns the
    RootReleaseAck arrival time, by which the line is persisted.  [data]
    and [off] as for {!release}. *)

val dir_dirty : t -> int -> bool
(** Is the line present-and-dirty in L2?  (The ground truth against which the
    skip-bit invariant of §6.2 is checked.) *)

val present : t -> int -> bool
val owner_perm : t -> core:int -> addr:int -> Perm.t

val peek_word : t -> int -> int
(** Functional read: L2 copy if present, else DRAM. *)

val find_dir : t -> int -> Directory.t option
(** The directory entry (owners, dirty bit, data) of [addr]'s line, if
    resident: one lookup, for audits that read it whole.  Read-only. *)

val check_inclusion : t -> l1_lines:(int -> (int * Perm.t) list) -> (unit, string) result
(** Verify that every line any L1 claims to hold is present in L2 with
    directory bits matching ([l1_lines core] lists that L1's
    (line address, permission) pairs). *)

val iter_lines : t -> (int -> Directory.t -> unit) -> unit
(** [iter_lines t f] calls [f line_addr dir] for every resident line — the
    audit layer's window onto directory state (dirty bits, owner perms,
    cached data). *)

val n_banks : t -> int

val mshr_files : t -> Skipit_sim.Resource.t array
(** Per-bank MSHR occupancy trackers (audit/conservation checks);
    length {!n_banks}. *)

val list_buffer_occupants : t -> int
(** ListBuffer requests admitted but not yet dequeued into an MSHR. *)

val crash : t -> unit
(** Drop all (volatile) contents. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] equal to [src], overwriting what [dst] held: every bank's
    lines and directory entries, MSHR, ListBuffer and slice occupancy,
    and the counters.  The backend and client ports are wiring and stay
    as they are (their owner copies them).  Both caches must come from
    the same parameters. *)

val stats : t -> Skipit_sim.Stats.Registry.t
(** Aggregate counters across banks: ["hits"], ["misses"], ["probes"],
    ["evictions"], ["dram_writebacks"], ["trivial_skips"],
    ["root_releases"], ["grants_dirty"], ["grants_clean"]. *)

val bank_stats : t -> Skipit_sim.Stats.Registry.t array
(** Per-bank shadows of the same counters, populated only when
    [l2_banks > 1] (exported by the system as [l2.bank.<i>.*]). *)
