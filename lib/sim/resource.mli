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

val acquire : t -> now:int -> busy:int -> int * int
(** [acquire t ~now ~busy] returns [(start, finish)] with [start >= now] the
    earliest time a unit is free and [finish = start + busy].  The unit is
    marked busy until [finish]. *)

val acquire_finish : t -> now:int -> busy:int -> int
(** {!acquire} returning only [finish] — no pair allocation on the
    per-access path. *)

val acquire_start : t -> now:int -> busy:int -> int
(** {!acquire} returning only [start]. *)

(** {2 Pick/hold}

    A structure held for a whole transaction whose duration depends on
    downstream contention (an MSHR, an FSHR, a transaction ID) is taken in
    two steps: {!min_index} picks the unit the naive scan would (the lowest
    index among the earliest free), the transaction runs from
    [start = max now (earliest_free t)], and {!hold} commits the unit's
    occupancy once the finish is known.  Nothing is allocated.  The picked
    unit stays free until [hold], so an acquisition made in between on the
    same resource takes the same unit, as it would in a scan. *)

val min_index : t -> int
(** The unit the next acquisition takes (0-based). *)

val hold : t -> idx:int -> start:int -> finish:int -> unit
(** [hold t ~idx ~start ~finish] marks unit [idx] busy until [finish] and
    bills [finish - start] busy cycles.  Raises [Invalid_argument] when
    [finish < start]. *)

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

  val acquire_finish : t -> addr:int -> line_bytes:int -> now:int -> busy:int -> int
  (** {!acquire} returning only [finish] (no pair). *)

  val bank_of : t -> addr:int -> line_bytes:int -> bank
  val reset : t -> unit

  val copy_into : src:t -> dst:t -> unit
  (** {!Resource.copy_into} bank by bank; the bank counts must match. *)
end
