(** Systematic crash-injection campaigns over the persistent data
    structures (§7.4 meets §4).

    A campaign runs every structure × persistence mode × strategy spec,
    crashing the system at persist-point boundaries (each persist-point
    call the program makes is a boundary — counted {e after} the call, so
    an honest flush has issued when the crash lands, while a faulted one
    that elided the writeback keeps its boundary and loses its data; the
    run is stopped at instruction granularity), then
    runs the structure's [repair] and verifies {e durable linearizability}
    with {!Dlin}, the one checker: the ops that completed before the crash
    are acked, stamped by their schedule index, and the one op the crash
    interrupted is in flight.  A set is judged per key (each key's final
    presence is its last completed write's, or the in-flight write's),
    which linearizability's locality makes as strict as enumerating
    whole-set states; the queue must hold the completed prefix, with or
    without the in-flight op.  An uncrashed run goes through the same
    check with nothing in flight.  Structural invariants ({!Invariant},
    {!Auditor}) are audited during the run and after the crash.

    Failing crash points are shrunk to a minimal (op count, boundary) pair
    and written as a one-command reproducer file. *)

module Pool = Skipit_par.Pool
module Pctx = Skipit_persist.Pctx
module Ds_bench = Skipit_workload.Ds_bench

type structure = Queue | Set of Skipit_pds.Set_ops.kind

val all_structures : structure list
val structure_name : structure -> string
val structure_of_name : string -> structure option

(** Seeded faults for validating the campaign itself: a test-only strategy
    wrapper that elides required writebacks.  The campaign must catch the
    resulting durability violation and shrink it. *)
type fault = No_fault | Drop_nth_persist of int | Drop_all_persists

val fault_name : fault -> string
val fault_of_name : string -> fault option

val apply_fault : fault -> calls:int ref -> Skipit_persist.Strategy.t -> Skipit_persist.Strategy.t
(** The strategy with the fault applied ([No_fault]: unchanged).  [calls]
    counts the store-side persist calls [Drop_nth_persist] numbers. *)

type spec = {
  structure : structure;
  mode : Pctx.mode;
  strategy : Ds_bench.strategy_spec;
      (** Named and realized as serve, fleet and Figs. 14–16 do. *)
  fault : fault;
  seed : int;
  n_ops : int;
  l2_banks : int;
      (** The platform: a trial runs on the tiny one-core system with this
          many NUCA L2 banks (a power of two; 1 = the monolithic L2), so a
          failure shrinks and replays on the hierarchy it was found on. *)
}

val spec_name : spec -> string
(** Structure, mode, strategy, fault, seed and op count; the bank count
    is not part of the name. *)

val compatible : spec -> bool
(** [false] for the non-persistent [Baseline] and where
    {!Ds_bench.compatible} says no (Link-and-Persist on the BST, §7.4). *)

val grid :
  ?structures:structure list ->
  ?modes:Pctx.mode list ->
  ?strategies:Ds_bench.strategy_spec list ->
  seed:int ->
  n_ops:int ->
  fault:fault ->
  unit ->
  (spec list, string) result
(** Every compatible structure × mode × strategy spec, in that nesting
    order (defaults: all structures, all modes, [Plain; Skipit]), each
    on a one-bank L2.
    [Error] names a strategy that fits none of the structures. *)

val default_specs : seed:int -> n_ops:int -> fault:fault -> spec list
(** The default {!grid}: all 5 structures × 3 modes × (Plain, Skipit). *)

type trial = {
  persists : int;  (** Persist-point calls made when the run ended. *)
  crashed : bool;  (** The stop predicate fired (vs. ran to completion). *)
  completed : int;  (** Operations completed before the end. *)
  violations : string list;  (** {!Dlin} verdicts + invariant violations. *)
}

val run_trial : ?audit_every:int -> spec -> crash_at:int option -> trial
(** One simulation: build a fresh system, run the generated op schedule,
    optionally crash at persist-point boundary [crash_at] (stop once that
    many persist-point calls have returned), repair, audit, verify.
    [audit_every] (default 400) attaches the periodic {!Auditor}.  This is [build], [run] and
    [finish] in sequence: the replay path (reproducers) and the oracle
    that forked trials are tested against. *)

(** {2 Trial stages}

    A trial's whole mutable state — system, counted persistence context,
    structure handle, {!Auditor}, op schedule, completed-op and
    persist-point counts — is one [world]. *)

type world

val build : ?audit_every:int -> spec -> world
(** A fresh system with the spec's strategy, fault and auditor attached;
    nothing has run yet. *)

val run : world -> stop:(unit -> bool) -> bool
(** Run the op schedule from its first op, checking [stop] before every
    dispatch; [true] when [stop] fired (the world is paused mid-run, ready
    to crash), [false] when the schedule completed.  A world runs once: a
    paused one cannot be resumed. *)

val finish : world -> crashed:bool -> trial
(** [~crashed:true]: power-fail the system, audit it quiesced, repair and
    check the completed prefix, and the op in flight, with {!Dlin}.  The
    repair runs under {!Recovery.run}'s bound; past it the trial reports a
    [repair-hang] violation instead of a {!Dlin} verdict.
    [~crashed:false]: quiesced audit and the same check with nothing in
    flight.  Either way the auditor's in-run failures are reported too. *)

val system : world -> Skipit_core.System.t
val persist_points : world -> int

val copy_into : src:world -> dst:world -> unit
(** Make [dst] a faithful copy of [src], the auditor's schedule included,
    overwriting whatever [dst] held (a finished trial included).  [dst]
    must have been built from [src]'s spec; it keeps its own components
    and the closures wiring them, so the two share no mutable state
    afterwards.  [src] must be paused
    between dispatches (or not yet run). *)

val copy : world -> world
(** A fresh world built from [w]'s spec, then {!copy_into}. *)

val crash_trials : spec -> int list -> (int * trial) list
(** [crash_trials spec bs] is [List.map (fun b -> b, run_trial spec
    ~crash_at:(Some b)) bs] for ascending [bs], computed from one run
    beside one twin world: at the first dispatch where the persist-point
    count reaches [b], the run is copied into the twin ({!copy_into}), and
    the twin is crashed and finished there.  A boundary no dispatch
    reaches gets the uncrashed trial, as in a replay. *)

type failure = { spec : spec; crash_at : int option; completed : int; violations : string list }

type report = {
  spec : spec;
  persists : int;  (** Total persist-point calls of the uncrashed run. *)
  boundaries_tested : int;
  failure : failure option;  (** First failing crash point, if any. *)
}

val boundaries : persists:int -> budget:int -> seed:int -> int list
(** The ascending crash boundaries a run with [persists] persist points
    tests: all of them when there are at most [budget], else the first,
    the last and seeded samples, [min persists budget] in all (budget 1:
    the first only). *)

val run_spec : ?budget:int -> spec -> report
(** Test one spec: its {!boundaries} (budget default 20) and the
    uncrashed run ({!Dlin} + invariants at quiesce).  The persist total
    that sizes the boundaries comes from an untimed pass, which runs the
    schedule through the strategy over a flat word table
    ({!Skipit_persist.Mem_port}) and simulates no system; the crash trials are forked from one audited
    run ({!crash_trials}), which is then finished uncrashed, and a total
    that differs from the pass's is a [persist-count] violation.  An uncrashed failure is reported first,
    with [crash_at = None] and no boundaries tested. *)

val run_campaign : ?pool:Pool.t -> ?budget:int -> spec list -> report list
(** {!run_spec} for every spec, the specs fanned out over [pool]; reports
    come back in submission order. *)

val shrink : failure -> failure
(** Minimise a failing crash point: truncate the schedule to the in-flight
    operation, greedily shrink the op count while a failing boundary
    survives, then take the earliest failing boundary. *)

val write_reproducer : string -> failure -> unit
val read_reproducer : string -> (failure, string) result
(** Round-trip a failure as a small key=value file ([crash_at=0] stands
    for [None]; [l2_banks] is written only when it is not 1, and read as 1
    when absent); replay the spec with {!run_trial}
    [~crash_at:failure.crash_at].  [read_reproducer] returns [Error] for a
    missing or unparsable field, [ops < 1], [crash_at < 0], an [l2_banks]
    that is not a power of two or a spec that is not {!compatible}. *)

val pp_report : Format.formatter -> report -> unit
