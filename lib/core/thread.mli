(** Simulated hardware threads over the shared memory hierarchy.

    The multi-threaded experiments (§7.2–§7.4) need concurrent instruction
    streams whose cache interactions interleave.  A {!task} is ordinary
    OCaml code that performs memory operations through this module's
    operations; the scheduler runs all tasks cooperatively, always running
    next the instruction of the task whose core clock is {e smallest} (ties
    to the earliest task in the list), so shared-state mutations occur in
    global timestamp order at memory-operation granularity.

    {b Inline dispatch.}  When the task requesting an instruction is the one
    the scheduler would pick next, the instruction executes in place, on the
    task's own stack, followed by the system's audit hook
    ({!System.set_audit_hook}).  A task leaves its stack (an effect) only to
    hand off to an earlier task, or when a {!run_until} predicate fires.  A
    lone task that cannot be stopped ({!run} of one task, {!run_task}) runs
    on the caller's stack with no fiber at all.  Every instruction, stop
    check and audit-hook call happens in the order the timestamp rule
    defines, however a request is dispatched.

    Consequently an exception raised by the memory hierarchy or by the
    audit hook propagates {e through the task body} before it leaves
    {!run}: a handler in the body sees it.  Task code must not catch
    exceptions it does not raise itself.  Today the only handler in any
    task body is [Skiplist]'s, for its own [Retry]; [test/test_thread.ml]
    checks that no structure swallows a hierarchy exception.

    The running scheduler is recorded per domain, so runs on different
    domains are independent, and runs nest: a run started from inside a
    task body, a stop predicate or an audit hook (on another system)
    restores the enclosing run's context when it returns or raises.  The
    operations below must be called from inside a task body; called outside
    any run they raise [Effect.Unhandled].  Stop predicates and audit hooks
    must not call them for the enclosing run. *)

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

type task = { core : int; body : unit -> unit }

val run : System.t -> task list -> int
(** Run all tasks to completion; returns the final maximum core clock.
    Several tasks may share a core (they interleave on its clock).  Every
    task first runs up to its first operation, in list order, before any
    instruction executes.  Raises whatever a task body raises. *)

val run_task : System.t -> (unit -> 'a) -> 'a
(** Run [f] as the only task, on core 0, and return its result. *)

val run_until :
  System.t -> stop:(unit -> bool) -> task list -> [ `Completed of int | `Stopped of int ]
(** Like {!run}, but [stop] is consulted before every instruction dispatch;
    when it returns [true] all remaining fibers are abandoned {e
    mid-instruction} and [`Stopped max_clock] is returned — a power failure
    at instruction granularity (the crash-campaign driver's primitive).
    Typical predicate: "the persist log has reached [n] events".

    Every operation of a task, [now] included, is one
    dispatch.  [stop] is called exactly once per dispatch, and never again for the
    same dispatch, also when the request that consulted it hands off to
    another task; it is not called after the last task finishes.  A run
    that completes therefore calls it once per dispatch, and a stopped run
    once more (the call that returned [true]), so a stateful predicate is
    safe.  It may run on a task's own stack. *)
