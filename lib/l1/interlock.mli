(** The probe_rdy / flush_rdy / wb_rdy handshake of §5.4.

    The flush unit, the probe unit and the writeback unit interlock through
    three ready signals so that a cache line is never simultaneously
    manipulated by a coherence probe (or an eviction) and an allocated FSHR:

    - [flush_rdy] is lowered when an FSHR is allocated and raised when it
      reaches {e root_release_ack} (metadata written, line released);
      probes and evictions must not proceed while it is low for their line;
    - [probe_rdy] is lowered the moment a probe arrives, {e before} the
      probe unit invalidates conflicting flush-queue entries; the flush
      queue may only dequeue (allocate an FSHR) while it is high;
    - [wb_rdy] plays [probe_rdy]'s role for the writeback unit's evictions.

    §5.4.1 argues the simultaneous-lowering race is benign: if a probe
    arrives in the same cycle as a dequeue, the probe unit re-checks
    [flush_rdy] one cycle later; the in-flight FSHR request wins, completes,
    raises [flush_rdy], and the probe proceeds — while [probe_rdy] being low
    prevents any further dequeue from overtaking it.  This module models
    that protocol cycle-by-cycle so the argument is executable; the timed
    {!Flush_unit} realises the same rules as completion-time arithmetic. *)

type agent = Probe_unit | Writeback_unit

type t

val create : unit -> t

(** Observable signal state. *)

val probe_rdy : t -> bool
val flush_rdy : t -> bool
val wb_rdy : t -> bool

(** Events, each advancing one cycle of the §5.4.1 protocol. *)

val begin_intrusion : t -> agent -> (unit, [ `Busy ]) result
(** A probe arrives ([Probe_unit]) or the MSHRs pick an eviction victim
    ([Writeback_unit]): lowers the corresponding ready signal.  Fails if
    that agent is already mid-intrusion. *)

val try_dequeue : t -> (unit, [ `Blocked ]) result
(** The flush queue attempts to allocate an FSHR: allowed only while
    [probe_rdy] and [wb_rdy] are both high (and no FSHR already holds the
    interlock — single-line view).  On success lowers [flush_rdy]. *)

val fshr_complete : t -> unit
(** The allocated FSHR reaches root_release_ack: raises [flush_rdy].
    Raises [Invalid_argument] if no FSHR holds the interlock. *)

val intrusion_may_proceed : t -> agent -> bool
(** The agent's one-cycle-later re-check of [flush_rdy] (§5.4.1): true when
    no FSHR holds the line. *)

val end_intrusion : t -> agent -> unit
(** The probe/eviction finished: raises the agent's ready signal. *)

val check_deadlock_free : t -> (unit, string) result
(** Structural check: some enabled transition always exists (an FSHR can
    complete, an intrusion can proceed, or the queue can dequeue). *)
