(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the simulator flows through this module so that every
    experiment is reproducible from a single seed.  The generator is the
    splitmix64 algorithm: tiny state and excellent statistical quality for
    simulation workloads; independent components seed their own streams. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds give equal streams. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val copy_into : src:t -> dst:t -> unit
(** [dst] continues exactly where [src] would. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val chance_threshold : float -> int
(** [chance_threshold p] is the integer [k] such that [chance t p] holds
    exactly when the draw's top 53 bits are [< k]: [ceil (p * 2^53)], [0]
    for [p <= 0] or NaN, [2^53] for [p >= 1]. *)

val first_below : t -> threshold:int -> limit:int -> int
(** [first_below t ~threshold ~limit] draws until a draw's top 53 bits are
    [< threshold] or [limit] draws have failed, and returns the number of
    failed draws.  A result [n < limit] means draw [n] (0-based) succeeded
    and [n + 1] draws were consumed; [limit] means all [limit] failed.
    Draw-for-draw the same as looping [chance t p] with
    [threshold = chance_threshold p], without allocating per draw. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
