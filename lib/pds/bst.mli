(** The Natarajan-Mittal lock-free external binary search tree [53].

    Internal nodes route; leaves hold the keys.  Deletion is coordinated
    with two bits stored {e inside} child-pointer words: a {e flag} (bit 0)
    injected on the edge to the victim leaf, and a {e tag} (bit 1) on its
    sibling edge that freezes the parent before the splice.  Because the
    algorithm owns spare pointer-word bits, it is the data structure the
    paper singles out as incompatible with Link-and-Persist.

    Keys must lie in [\[1, 2{^49})].  All operations must run inside a
    {!Skipit_core.Thread} task. *)

type t

val create : Skipit_persist.Pctx.t -> Skipit_mem.Allocator.t -> t
val rebind : t -> Skipit_mem.Allocator.t -> t
(** The same structure, allocating its future nodes from the given
    allocator: the handle for a copy of the simulated memory it lives in
    (whose allocator continues where this one would). *)

val insert : t -> Skipit_persist.Pctx.t -> int -> bool
val delete : t -> Skipit_persist.Pctx.t -> int -> bool
val contains : t -> Skipit_persist.Pctx.t -> int -> bool

val repair : t -> Skipit_persist.Pctx.t -> int
(** Post-crash recovery: find every leaf whose incoming edge carries a
    persisted deletion flag (an interrupted NM delete) and complete its
    cleanup durably.  Returns the number of cleanups performed. *)

val elements_unsafe : t -> Skipit_core.System.t -> int list
(** Untimed sorted snapshot of the present keys.  Raises {!Node.Cycle}
    when the edges loop. *)
