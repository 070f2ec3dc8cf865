(** Bounded waiting rooms in the transaction-level timing model.

    Several structures in the paper's SoC are FIFO buffers that admit a
    request, hold it until a downstream unit accepts it, and push back on
    the producer when full: the flush queue in front of the FSHRs (§5.2 — a
    full queue nacks the LSU) and the L2's ListBuffer in front of its MSHRs
    (§3.4).  In completion-time arithmetic that behaviour reduces to: the
    k-th request may enter only once the (k − capacity)-th request has left.

    Usage: [admit] on arrival (returns the possibly-delayed entry time),
    then [release] with the time the request left the buffer, in admission
    order. *)

type t

val create : capacity:int -> t
(** [capacity] must be positive. *)

val admit : t -> now:int -> int
(** Entry time: [now], or the departure time of the request [capacity]
    positions earlier if the room is still full then.  Raises
    [Invalid_argument] when that departure has not been recorded (see
    {!peek_entry}). *)

val peek_entry : t -> now:int -> int
(** What {!admit} would return, without admitting.  When the room is full
    and the slot-freeing departure has not been recorded yet, the entry time
    is unknown but certainly after [now]: [max_int] is returned.  Load
    shedders test [peek_entry t ~now > now] — "the room was full at the
    instant the request arrived". *)

val release : t -> at:int -> unit
(** Record (in FIFO order) that the oldest occupant left at [at].  The
    departures not yet consumed by an admission live in a ring of
    [capacity] slots; a release that would hold more raises
    [Invalid_argument] (it releases an occupant never admitted). *)

val occupants : t -> int
(** Requests admitted but not yet released. *)

val reset : t -> unit
(** Forget all admissions and recorded departures (power failure: in-flight
    requests vanish and must not back-pressure the next run). *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] equal to [src]: the same admissions, releases and recorded
    departures.  The capacities must match. *)
