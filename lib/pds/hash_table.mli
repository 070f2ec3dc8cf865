(** Lock-free hash table [23]: a fixed array of Harris-list buckets.

    The bucket count is fixed at creation (the paper's workloads size it for
    a load factor around one), so resizing — orthogonal to writeback
    behaviour — is out of scope.  Keys hash to a bucket with Fibonacci
    hashing; within a bucket the list provides lock-freedom and
    persistence. *)

type t

val create : Skipit_persist.Pctx.t -> Skipit_mem.Allocator.t -> buckets:int -> t
val rebind : t -> Skipit_mem.Allocator.t -> t
(** The same structure, allocating its future nodes from the given
    allocator: the handle for a copy of the simulated memory it lives in
    (whose allocator continues where this one would). *)

val insert : t -> Skipit_persist.Pctx.t -> int -> bool
val delete : t -> Skipit_persist.Pctx.t -> int -> bool
val contains : t -> Skipit_persist.Pctx.t -> int -> bool

val repair : t -> Skipit_persist.Pctx.t -> int
(** Post-crash recovery over every bucket (see {!Harris_list.repair}). *)

val elements_unsafe : t -> Skipit_core.System.t -> int list
(** Untimed snapshot, sorted.  Raises {!Node.Cycle} when a bucket's
    links loop. *)
