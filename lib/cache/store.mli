(** Struct-of-arrays set-associative tag store with LRU replacement.

    Both the L1 metadata/data arrays (§3.3) and the L2 directory+BankedStore
    (§3.4) are instances.  All state lives in flat parallel tables (tags,
    valid bits, LRU stamps, payloads) indexed by an integer {e slot id} —
    [set_index * ways + way] — and lookups return that id rather than an
    option, so the hit path allocates nothing.  [-1] ({!miss}) means not
    present.

    The per-line payload type ['a] carries whatever metadata a level wants
    in the store itself (directory bits, line records), unboxed: an invalid
    slot holds the store's [empty] value, so a fill allocates nothing.  A
    level keeping its line state in its own struct-of-arrays tables
    instantiates ['a = unit] and indexes those tables by the same slot id
    (see {!slots}).

    Replacement picks the lowest-numbered invalid way first; among valid
    ways the policy chooses: [Lru] (the default — deterministic and easiest
    to reason about in tests) or [Random] seeded pseudo-random — what the
    BOOM data cache actually implements. *)

(** Victim-selection policy among valid ways. *)
type policy = Lru | Random of Skipit_sim.Rng.t

type 'a t

val create : ?policy:policy -> Geometry.t -> empty:'a -> 'a t
(** [empty] fills every invalid slot's payload cell; it is never returned
    by {!payload} nor passed to {!copy_into}'s callbacks. *)

val geometry : 'a t -> Geometry.t

val slots : 'a t -> int
(** Total slot count ([sets * ways]); the valid id range for parallel
    side tables. *)

val miss : int
(** The not-present slot id, [-1]. *)

val find : 'a t -> int -> int
(** [find t addr] is the slot id holding [addr]'s line, or {!miss}. *)

val is_valid : 'a t -> int -> bool

val payload : 'a t -> int -> 'a
(** Payload of a valid slot id.  Raises [Invalid_argument] on an invalid
    slot. *)

val touch : 'a t -> int -> now:int -> unit
(** Record a use for LRU. *)

val victim : 'a t -> int -> int
(** [victim t addr] is the slot id to (re)fill for [addr]'s set: the
    lowest-numbered invalid way if one exists, else the policy's pick
    (which the caller must first evict — check {!is_valid}). *)

val fill : 'a t -> int -> addr:int -> payload:'a -> now:int -> unit
(** Install a line into a slot id (tag set from [addr], marked valid). *)

val invalidate : 'a t -> int -> unit

val slot_addr : 'a t -> int -> int
(** Line base address currently held by a valid slot id. *)

val iter_valid : 'a t -> (int -> int -> unit) -> unit
(** [iter_valid t f] calls [f line_addr id] for every valid slot. *)

val count_valid : 'a t -> int

val invalidate_all : 'a t -> unit
(** Drop every line — used to simulate a crash (volatile caches lose
    contents, §2.5). *)

val copy_into : copy:('a -> 'a) -> over:('a -> 'a -> 'a) -> src:'a t -> dst:'a t -> unit
(** Make [dst] hold what [src] holds: tags, valid bits, LRU stamps and, for
    [Random], the generator's state.  For each slot valid in [src] holding
    [s], [dst]'s new payload is [over s d] when [dst]'s slot was valid too,
    holding [d], else [copy s]: an immutable payload can return [s] from
    both, a mutable one copies into [d] and returns it, and [copy] returns
    a fresh copy.  The geometries and policies must match. *)
