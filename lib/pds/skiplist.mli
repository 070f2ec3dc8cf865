(** Lock-free skiplist [23], persistence-instrumented.

    A tower per key: the bottom level is a Harris-style marked list that
    defines set membership; upper levels are index shortcuts maintained
    best-effort with CAS (the standard Herlihy-Shavit construction).  Tower
    heights are drawn deterministically from a hash of the key (geometric,
    p = 1/2), keeping runs reproducible.

    Keys must lie in [\[1, 2{^49})].  All operations must run inside a
    {!Skipit_core.Thread} task. *)

type t

val max_level : int
(** Tower height cap (12). *)

val create : Skipit_persist.Pctx.t -> Skipit_mem.Allocator.t -> t
val rebind : t -> Skipit_mem.Allocator.t -> t
(** The same structure, allocating its future nodes from the given
    allocator: the handle for a copy of the simulated memory it lives in
    (whose allocator continues where this one would). *)

val insert : t -> Skipit_persist.Pctx.t -> int -> bool
val delete : t -> Skipit_persist.Pctx.t -> int -> bool
val contains : t -> Skipit_persist.Pctx.t -> int -> bool

val repair : t -> Skipit_persist.Pctx.t -> int
(** Post-crash recovery: durably unlink every marked node at every level
    (a crash window exists between a delete's mark-persist and its
    unlink-persist).  Returns the number of bottom-level (membership)
    unlinks completed. *)

val elements_unsafe : t -> Skipit_core.System.t -> int list
(** Untimed snapshot from the bottom level.  Raises {!Node.Cycle} when
    the links loop. *)
