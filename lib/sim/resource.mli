(** Timed hardware resources with limited parallelism.

    The simulator is transaction-level: each memory operation computes its
    completion time by {e acquiring} the hardware structures it flows through.
    A resource models [count] identical units (MSHRs, FSHRs, L2 banks, DRAM
    channels, link channels, ...): acquiring it at time [now] for [busy]
    cycles picks the earliest-free unit, starts no earlier than [now], and
    occupies that unit for [busy] cycles.  Contention therefore surfaces as
    delayed start times, exactly how structural hazards surface in hardware. *)

type t

val create : ?count:int -> string -> t
(** [create ~count name] makes a resource with [count] parallel units
    (default 1).  [name] labels it in statistics. *)

val name : t -> string
val count : t -> int

val acquire : t -> now:int -> busy:int -> int * int
(** [acquire t ~now ~busy] returns [(start, finish)] with [start >= now] the
    earliest time a unit is free and [finish = start + busy].  The unit is
    marked busy until [finish]. *)

val acquire_finish : t -> now:int -> busy:int -> int
(** {!acquire} returning only [finish] — no pair allocation on the
    per-access path. *)

val acquire_start : t -> now:int -> busy:int -> int
(** {!acquire} returning only [start]. *)

val acquire_dyn : t -> now:int -> (int -> int) -> int * int
(** [acquire_dyn t ~now f] picks the earliest-free unit; the occupancy is
    computed from the actual start time: [start = max now unit_free],
    [finish = f start].  Used for structures held for the whole lifetime of a
    transaction whose duration depends on downstream contention (MSHRs).
    [f start] must be [>= start]. *)

val acquire_dyn_idx : t -> now:int -> (idx:int -> int -> int) -> int * int * int
(** Like {!acquire_dyn} but also exposes which unit was picked: the callback
    receives [~idx] (0-based unit index) and the result is
    [(idx, start, finish)].  Lets observability layers attribute occupancy to
    individual MSHRs/FSHRs. *)

val earliest_free : t -> int
(** Next time at which at least one unit is free (without acquiring). *)

val all_free_at : t -> int
(** Time at which every unit is idle — e.g. when the last outstanding FSHR
    completes. *)

val busy_at : t -> int -> int
(** [busy_at t now] is how many units are still busy at time [now]. *)

val total_busy_cycles : t -> int
(** Accumulated busy cycles across all units (utilisation accounting). *)

val reset : t -> unit

val copy_into : src:t -> dst:t -> unit
(** Make [dst]'s occupancy equal to [src]'s.  The two must have the same
    unit count; [dst] keeps its name. *)

module Banked : sig
  type bank = t
  type t

  val create : banks:int -> ?count:int -> string -> t
  (** [banks] independent resources, each with [count] units; requests are
      routed by address. *)

  val acquire : t -> addr:int -> line_bytes:int -> now:int -> busy:int -> int * int
  (** Route to bank [(addr / line_bytes) mod banks] and acquire it. *)

  val bank_of : t -> addr:int -> line_bytes:int -> bank
  val reset : t -> unit

  val copy_into : src:t -> dst:t -> unit
  (** {!Resource.copy_into} bank by bank; the bank counts must match. *)
end
