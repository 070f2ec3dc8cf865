(** A persistent Michael-Scott lock-free FIFO queue.

    The fifth data structure, beyond the paper's four sets: queues are the
    other workhorse of the durable-data-structure literature (Friedman et
    al.'s durable queue descends directly from this shape), and their
    persist pattern differs from sets — every operation touches the same
    head/tail lines, so redundant-writeback avoidance behaves differently.

    Standard MS algorithm over simulated memory: nodes are (value, next)
    pairs; [enqueue] links at the tail with CAS and swings the tail
    (helping lagging tails); [dequeue] swings the head.  Persistence points
    follow the usual durable-queue placement: the new node, the linking
    CAS'd word, and the swung head pointer.

    Values must lie in [\[1, 2{^49})] (0 is reserved).  All operations must
    run inside a {!Skipit_core.Thread} task. *)

type t

val create : Skipit_persist.Pctx.t -> Skipit_mem.Allocator.t -> t

val rebind : t -> Skipit_mem.Allocator.t -> t
(** The same structure, allocating its future nodes from the given
    allocator: the handle for a copy of the simulated memory it lives in
    (whose allocator continues where this one would). *)

val enqueue : t -> Skipit_persist.Pctx.t -> int -> unit
val dequeue : t -> Skipit_persist.Pctx.t -> int option

val repair : t -> Skipit_persist.Pctx.t -> int
(** Post-crash recovery: swing the (never-persisted-on-the-hot-path) tail
    pointer forward to the last reachable node, durably.  Returns the
    number of swings performed. *)

val to_list_unsafe : t -> Skipit_core.System.t -> int list
(** Untimed front-to-back snapshot.  Raises {!Node.Cycle} when the links
    loop. *)
