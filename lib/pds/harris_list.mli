(** Harris's lock-free sorted linked list [31], persistence-instrumented.

    The set data structure of §7.4: nodes are (key, next) pairs in simulated
    memory, deletion is two-phase (logical mark on the next pointer — bit 0
    — then physical unlinking, with traversals helping to snip marked
    nodes).  All shared accesses go through the {!Skipit_persist.Pctx}, so
    the same code runs under every strategy × persistence-mode combination.

    Keys must lie in [\[1, 2{^49})].  All functions must run inside a
    {!Skipit_core.Thread} task. *)

type t

val create : Skipit_persist.Pctx.t -> Skipit_mem.Allocator.t -> t
(** Build head/tail sentinels. *)

val rebind : t -> Skipit_mem.Allocator.t -> t
(** The same structure, allocating its future nodes from the given
    allocator: the handle for a copy of the simulated memory it lives in
    (whose allocator continues where this one would). *)

val insert : t -> Skipit_persist.Pctx.t -> int -> bool
(** [false] if the key was already present. *)

val delete : t -> Skipit_persist.Pctx.t -> int -> bool
val contains : t -> Skipit_persist.Pctx.t -> int -> bool

val repair : t -> Skipit_persist.Pctx.t -> int
(** Post-crash recovery: walk the whole list and physically unlink (and
    persist) every node whose logical-deletion mark survived the crash but
    whose unlinking did not.  Returns the number of nodes unlinked.  Safe to
    run at any time (it only completes interrupted deletions). *)

val to_list_unsafe : t -> Skipit_core.System.t -> int list
(** Untimed functional snapshot of the unmarked keys (reads the coherent
    memory image directly).  Raises {!Node.Cycle} when the links loop. *)
