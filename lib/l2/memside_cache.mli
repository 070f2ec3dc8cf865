(** A memory-side L3 between the LLC and DRAM — the deeper hierarchy of the
    §7.4 hypothesis.

    Unlike the inclusive L2 it needs no directory (its only client is the
    L2) and no probes; it is a plain write-back set-associative cache:

    - reads hit here or fetch from DRAM;
    - L2 victim writebacks lodge here dirty (fast) and reach DRAM only on
      eviction;
    - durability writes (the RootRelease path) write {e through} to DRAM
      and leave the L3 copy clean, so the persistence semantics of §4 are
      unchanged — only the depth/latency of the path grows;
    - a dirty L3 copy makes {!Skipit_tilelink.Port.Memside.read_line} report [dirty_below],
      keeping the skip-bit invariant (§6.2) intact one level further down. *)

open Skipit_cache

type t

val create :
  ?name:string ->
  geom:Geometry.t ->
  access_latency:int ->
  banks:int ->
  bank_busy:int ->
  below:Skipit_tilelink.Port.Memside.t ->
  beats_per_line:int ->
  unit ->
  t
(** [below] is the next agent towards the persistence domain — usually
    {!Backend.of_dram} — reached through its own counted port, so the
    L3↔DRAM boundary is observable like every other.  [beats_per_line]
    sizes the beat counters of the upstream port this cache exposes via
    {!backend}. *)

val backend : t -> Skipit_tilelink.Port.Memside.t
(** The upstream memside port handed to the L2 (one per cache, stable
    across calls). *)

val present : t -> int -> bool
val dirty : t -> int -> bool

val find_data : t -> int -> int array option
(** The cached words of [addr]'s line, if resident (audit layer;
    read-only). *)

val iter_lines : t -> (int -> dirty:bool -> data:int array -> unit) -> unit
(** Visit every resident line (audit layer). *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst]'s lines, bank occupancy and counters equal to [src]'s.  The
    memside ports above and below are not copied: their owner does
    that. *)

val stats : t -> Skipit_sim.Stats.Registry.t
(** ["hits"], ["misses"], ["evictions"], ["dram_writebacks"],
    ["persist_writes"]. *)
