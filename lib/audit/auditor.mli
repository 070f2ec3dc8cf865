(** Stateful hierarchy auditor: structural checks plus {e dirty-line
    conservation} across observations.

    Conservation is the temporal half of the §4 argument: once a line has
    been observed dirty somewhere in the hierarchy, it may only stop being
    dirty by persisting (a new {!Skipit_mem.Persist_log} event) or by being
    discarded with its architectural value already matching the persistence
    domain (CBO.INVAL forfeits data by definition).  A line that silently
    turns clean while its value still differs from NVMM is exactly the
    elided-writeback bug class FliT exists to catch.

    An auditor can be invoked directly ({!observe}) or attached as the
    periodic {!Skipit_core.System} audit hook ({!attach}) — the hook is
    untimed, so golden cycle counts are identical with auditing on or
    off. *)

type t

val create : Skipit_core.System.t -> t

val observe : t -> Invariant.violation list
(** Run {!Invariant.check_all} plus the conservation step against the
    tracked dirty-line set, record any violations, and return the new ones
    from this observation. *)

val attach : t -> every:int -> unit
(** Install {!observe} as the system's periodic audit hook, firing every
    [every] simulated cycles.  Violations accumulate in {!failures}. *)

val detach : t -> unit

val note_crash : t -> unit
(** Tell the auditor a power failure happened: dirty lines legitimately
    vanished, so the tracked set is discarded (the durability oracle, not
    conservation, judges crash-induced loss). *)

val copy_into : src:t -> dst:t -> unit
(** Give [dst] [src]'s tracked dirty lines and recorded failures.  Each
    auditor keeps watching its own system: copy the systems with
    {!Skipit_core.System.copy_into}. *)

val failures : t -> Invariant.violation list
(** All violations recorded so far, oldest first. *)
