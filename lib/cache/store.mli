(** Struct-of-arrays set-associative tag store with LRU replacement.

    The L1 metadata/data arrays (§3.3), the L2 directory+BankedStore (§3.4)
    and the memory-side L3 each index their line state by one of these.
    All state lives in flat parallel tables (tags, valid bits, LRU stamps)
    indexed by an integer {e slot id} — [set_index * ways + way] — and
    lookups return that id rather than an option, so the hit path
    allocates nothing.  [-1] ({!miss}) means not present.

    The store holds no line state: a level keeps its own tables indexed by
    the same slot id (see {!slots}) and owns what they hold, so a fill or
    an invalidation here stores no pointer.

    Replacement picks the lowest-numbered invalid way first; among valid
    ways the policy chooses: [Lru] (the default — deterministic and easiest
    to reason about in tests) or [Random] seeded pseudo-random — what the
    BOOM data cache actually implements. *)

(** Victim-selection policy among valid ways. *)
type policy = Lru | Random of Skipit_sim.Rng.t

type t

val create : ?policy:policy -> Geometry.t -> t

val geometry : t -> Geometry.t

val slots : t -> int
(** Total slot count ([sets * ways]); the valid id range for parallel
    side tables. *)

val miss : int
(** The not-present slot id, [-1]. *)

val find : t -> int -> int
(** [find t addr] is the slot id holding [addr]'s line, or {!miss}. *)

val is_valid : t -> int -> bool

val touch : t -> int -> now:int -> unit
(** Record a use for LRU. *)

val victim : t -> int -> int
(** [victim t addr] is the slot id to (re)fill for [addr]'s set: the
    lowest-numbered invalid way if one exists, else the policy's pick
    (which the caller must first evict — check {!is_valid}). *)

val fill : t -> int -> addr:int -> now:int -> unit
(** Install a line into a slot id (tag set from [addr], marked valid). *)

val invalidate : t -> int -> unit
(** Clear the slot's valid bit; its tag and LRU stamp stay as they were. *)

val slot_addr : t -> int -> int
(** Line base address currently held by a valid slot id. *)

val iter_valid : t -> (int -> int -> unit) -> unit
(** [iter_valid t f] calls [f line_addr id] for every valid slot. *)

val count_valid : t -> int

val invalidate_all : t -> unit
(** Drop every line — used to simulate a crash (volatile caches lose
    contents, §2.5). *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] hold what [src] holds: tags, valid bits, LRU stamps (invalid
    slots' stale ones included) and, for [Random], the generator's state.
    The geometries and policies must match. *)
