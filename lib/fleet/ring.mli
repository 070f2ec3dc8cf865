(** Consistent-hash ring for the fleet router.

    Each shard owns [vnodes] points on a 64-bit ring; a key hashes to a
    point and walks clockwise collecting the first [k] {e distinct} shards
    — its replica set, primary first.  Virtual nodes smooth the ownership
    distribution, and consistent hashing keeps the map stable: the ring is
    a pure function of [(shards, vnodes, seed)], so the router, the
    prefill, and the end-of-run oracle all agree on placement without
    communicating.

    Hashing is the splitmix64 finalizer over exact integer arithmetic — no
    host-dependent behaviour, same determinism contract as
    {!Skipit_sim.Rng}. *)

type t

val create : shards:int -> vnodes:int -> seed:int -> t
(** [shards >= 1], [vnodes >= 1]. *)

val shards : t -> int

val replicas : t -> key:int -> k:int -> int list
(** The first [min k (shards t)] distinct shards clockwise from [key]'s
    ring point, primary first.  Deterministic in [(t, key, k)]. *)

val owner : t -> key:int -> int
(** [List.hd (replicas t ~key ~k:1)]. *)

(** {2 Precomputed replica sets}

    A fleet routes every request through {!replicas}, two or three times
    per request: a table built once per run answers the in-range keys
    with one array read. *)

type replica_table

val replica_table : t -> key_range:int -> k:int -> replica_table
(** [replicas t ~key ~k] for every key in [0 .. key_range]. *)

val route : replica_table -> key:int -> int list
(** [replicas t ~key ~k] for the table's ring and [k]: read from the
    table in range, computed outside it. *)
