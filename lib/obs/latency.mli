(** End-to-end latency histograms from a trace.

    Pairs {!Trace.Req_start}/{!Trace.Req_end} events by id and aggregates
    the durations per request class.  Requests whose partner event was lost
    (ring wraparound, track filter) are reported as unmatched instead of
    contributing bogus durations. *)

module Sample = Skipit_sim.Stats.Sample

type t

val of_trace : Trace.t -> t

val sample : t -> Trace.cls -> Sample.t
(** Durations (in cycles) of matched requests of one class. *)

val overall : t -> Sample.t
(** Durations of all matched requests, regardless of class. *)

val unmatched_starts : t -> int
val unmatched_ends : t -> int

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

val summarize : Sample.t -> summary option
(** [None] for an empty sample. *)

type gap = { gap_p50 : float; gap_p99 : float; gap_p999 : float }

val gap : intended:summary -> recorded:summary -> gap
(** How much a dequeue-stamped (coordinated-omission-blind) latency summary
    understates the intended-arrival-stamped one at each tail percentile. *)

val summaries : t -> (string * summary) list
(** Per-class summaries for the non-empty classes, in class order. *)

val pp : Format.formatter -> t -> unit
(** Human-readable latency table (one row per class plus overall). *)
