(** Node layout over simulated memory.

    A node is [fields] logical 64-bit words laid out with the persistence
    strategy's stride ({!Skipit_persist.Strategy.field_stride}: FliT-adjacent
    interleaves a counter word after each field).  Nodes are aligned to the
    smallest power of two covering their footprint (capped at one cache
    line) so small nodes never straddle lines — one persist point covers
    them. *)

val alloc : Skipit_mem.Allocator.t -> stride:int -> fields:int -> int
(** Fresh node base address.  Allocation is address arithmetic only (no
    simulated memory traffic), matching a warmed-up pool allocator. *)

val field : stride:int -> int -> int -> int
(** [field ~stride base i] is the address of field [i]. *)

exception Cycle of int
(** An untimed snapshot walked past {!walk_limit}: its links loop.  The
    payload is the node it had reached. *)

val walk_limit : Skipit_mem.Allocator.t -> int
(** The most nodes an acyclic walk can visit: one per word allocated. *)
