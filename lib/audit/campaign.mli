(** Systematic crash-injection campaigns over the persistent data
    structures (§7.4 meets §4).

    A campaign runs every structure × persistence mode × strategy spec,
    crashing the system at persist-point boundaries (each persist-point
    call the program makes is a boundary — counted {e after} the call, so
    an honest flush has issued when the crash lands, while a faulted one
    that elided the writeback keeps its boundary and loses its data; the
    run is stopped at instruction granularity), then
    runs the structure's [repair] and verifies {e durable linearizability}
    against an oracle model replaying the operations that completed before
    the crash: every completed, fenced operation must be reflected in the
    post-crash snapshot, the single in-flight operation may land either
    way, and no phantom element may appear.  Structural invariants
    ({!Invariant}, {!Auditor}) are audited during the run and after the
    crash.

    Failing crash points are shrunk to a minimal (op count, boundary) pair
    and written as a one-command reproducer file. *)

module Pool = Skipit_par.Pool
module Pctx = Skipit_persist.Pctx

type structure = Queue | Set of Skipit_pds.Set_ops.kind

val all_structures : structure list
val structure_name : structure -> string
val structure_of_name : string -> structure option

type strategy_spec = Plain | Skipit | Flit_adjacent | Link_and_persist

val all_strategies : strategy_spec list
val strategy_name : strategy_spec -> string
val strategy_of_name : string -> strategy_spec option

(** Seeded faults for validating the campaign itself: a test-only strategy
    wrapper that elides required writebacks.  The campaign must catch the
    resulting durability violation and shrink it. *)
type fault = No_fault | Drop_nth_persist of int | Drop_all_persists

val fault_name : fault -> string
val fault_of_name : string -> fault option

type spec = {
  structure : structure;
  mode : Pctx.mode;
  strategy : strategy_spec;
  fault : fault;
  seed : int;
  n_ops : int;
}

val spec_name : spec -> string

val compatible : spec -> bool
(** Link-and-Persist is excluded for the BST (word-bit clash, §7.4). *)

val default_specs : seed:int -> n_ops:int -> fault:fault -> spec list
(** All 5 structures × 3 modes × (Plain, Skipit), compatibility-filtered. *)

type trial = {
  persists : int;  (** Persist-point calls made when the run ended. *)
  crashed : bool;  (** The stop predicate fired (vs. ran to completion). *)
  completed : int;  (** Operations completed before the end. *)
  violations : string list;  (** Durability oracle + invariant violations. *)
}

val run_trial : ?audit_every:int -> ?l2_banks:int -> spec -> crash_at:int option -> trial
(** One simulation: build a fresh system, run the generated op schedule,
    optionally crash at persist-point boundary [crash_at] (stop once that
    many persist-point calls have returned), repair, audit, verify.
    [audit_every] (default 400) attaches the periodic {!Auditor};
    [l2_banks] (default 1) runs the trial on a banked NUCA L2, exercising
    the crash/repair path across every bank.  This is [build], [run] and
    [finish] in sequence: the replay path (reproducers) and the oracle
    that forked trials are tested against. *)

(** {2 Trial stages}

    A trial's whole mutable state — system, counted persistence context,
    structure handle, {!Auditor}, op schedule, completed-op and
    persist-point counts — is one [world]. *)

type world

val build : ?audit_every:int -> ?l2_banks:int -> spec -> world
(** A fresh system with the spec's strategy, fault and auditor attached;
    nothing has run yet. *)

val run : world -> stop:(unit -> bool) -> bool
(** Run the op schedule from its first op, checking [stop] before every
    dispatch; [true] when [stop] fired (the world is paused mid-run, ready
    to crash), [false] when the schedule completed.  A world runs once: a
    paused one cannot be resumed. *)

val finish : world -> crashed:bool -> trial
(** [~crashed:true]: power-fail the system, audit it quiesced, repair and
    check the completed prefix against the oracle.  [~crashed:false]:
    quiesced audit and the uncrashed oracle.  Either way the auditor's
    in-run failures are reported too. *)

val system : world -> Skipit_core.System.t
val persist_points : world -> int

val copy : world -> world
(** A deep copy sharing no mutable state with the original, valid in this
    process only. *)

val crash_trials : ?pool:Pool.t -> ?l2_banks:int -> spec -> int list -> (int * trial) list
(** [crash_trials spec bs] is [List.map (fun b -> b, run_trial spec
    ~crash_at:(Some b)) bs] for ascending [bs], computed from one run:
    at the first dispatch where the persist-point count reaches [b], the
    world is copied, and the copy is crashed and finished (fanned out
    over [pool]).  A boundary no dispatch reaches gets the uncrashed
    trial, as in a replay. *)

type failure = { spec : spec; crash_at : int option; completed : int; violations : string list }

type report = {
  spec : spec;
  persists : int;  (** Total persist-point calls of the uncrashed run. *)
  boundaries_tested : int;
  failure : failure option;  (** First failing crash point, if any. *)
}

val run_spec : ?pool:Pool.t -> ?budget:int -> ?l2_banks:int -> spec -> report
(** Test one spec: an uncrashed run first (oracle + invariants at quiesce),
    then up to [budget] (default 20) crash boundaries — enumerated
    exhaustively when the run has that few persists, otherwise the first,
    the last and RNG-sampled interior boundaries, all forked from one
    more run ({!crash_trials}).  Crash trials fan out over [pool]. *)

val run_campaign : ?pool:Pool.t -> ?budget:int -> ?l2_banks:int -> spec list -> report list

val shrink : failure -> failure
(** Minimise a failing crash point: truncate the schedule to the in-flight
    operation, greedily shrink the op count while a failing boundary
    survives, then take the earliest failing boundary. *)

val write_reproducer : string -> failure -> unit
val read_reproducer : string -> (failure, string) result
(** Round-trip a failure as a small key=value file ([crash_at=0] stands
    for [None]); replay the spec with {!run_trial}
    [~crash_at:failure.crash_at].  [read_reproducer] returns [Error] for a
    missing or unparsable field, [ops < 1] or [crash_at < 0]. *)

val pp_report : Format.formatter -> report -> unit
