(** Simulated hardware threads over the shared memory hierarchy.

    The multi-threaded experiments (§7.2–§7.4) need concurrent instruction
    streams whose cache interactions interleave.  A {!task} is ordinary
    OCaml code that performs memory operations through this module's typed
    effects; the scheduler runs all tasks cooperatively, always resuming the
    thread whose core clock is {e smallest}, so shared-state mutations occur
    in global timestamp order at memory-operation granularity.

    All operation functions below must be called from inside a running task
    (they perform effects handled by {!run}); calling them elsewhere raises
    [Effect.Unhandled]. *)

val load : int -> int
val store : int -> int -> unit
val cas : int -> expected:int -> desired:int -> bool
val clean : int -> unit
(** CBO.CLEAN of the line containing the address (asynchronous: returns at
    commit; completion is enforced by {!fence}). *)

val flush : int -> unit
(** CBO.FLUSH, same asynchrony. *)

val inval : int -> unit
(** CBO.INVAL (CMO extension): discard the line everywhere, no writeback. *)

val zero : int -> unit
(** CBO.ZERO (CMO extension): zero-fill the line. *)

val fence : unit -> unit
(** FENCE RW,RW — waits for all of this core's pending writebacks. *)

val delay : int -> unit
(** Non-memory work. *)

val now : unit -> int
(** This core's current clock. *)

val core_id : unit -> int

type task = { core : int; body : unit -> unit }

val run : System.t -> task list -> int
(** Run all tasks to completion; returns the final maximum core clock.
    Several tasks may share a core (they interleave on its clock).  Raises
    whatever a task body raises. *)

val run_task : System.t -> (unit -> 'a) -> 'a
(** Run [f] as the only task, on core 0, and return its result. *)

val run_until :
  System.t -> stop:(unit -> bool) -> task list -> [ `Completed of int | `Stopped of int ]
(** Like {!run}, but [stop] is consulted before every instruction dispatch;
    when it returns [true] all remaining fibers are abandoned {e
    mid-instruction} and [`Stopped max_clock] is returned — a power failure
    at instruction granularity (the crash-campaign driver's primitive).
    Typical predicate: "the persist log has reached [n] events". *)
