(** Durable transactions over the simulated NVMM — the redo-log discipline
    the paper's writeback instructions exist to support (§1, §2.5).

    A transaction buffers writes, then commits with the canonical
    clean+fence protocol:

    + {b log}: append (address, value) pairs to the persistent redo log and
      write them back;
    + {b mark}: persist the COMMITTED flag — the durability point;
    + {b apply}: perform the writes in place and write them back;
    + {b clear}: persist the IDLE flag, retiring the log.

    A crash before {e mark} loses the transaction entirely; a crash after
    it is repaired by {!recover}, which replays the log.  Either way the
    transaction is atomic.  {!execute_steps} exposes the protocol's phases
    individually so tests can inject crashes between (and inside) them.

    All operations must run inside a {!Skipit_core.Thread} task. *)

type t
type txn

val create : Skipit_mem.Allocator.t -> capacity:int -> t
(** Allocate and initialise the log region ([capacity] = max writes per
    transaction). *)

val read : txn -> int -> int
(** Read through the transaction (sees its own buffered writes). *)

val write : txn -> int -> int -> unit
(** Buffer a write.  Raises [Invalid_argument] beyond [capacity] (or on a
    misaligned address). *)

val execute : t -> (txn -> unit) -> unit
(** Run the body and commit durably (all four phases). *)

val execute_steps : t -> (txn -> unit) -> steps:int -> unit
(** Crash-injection hook: run the body, then only the first [steps] commit
    phases (0–4).  [steps >= 4] is a full commit. *)

val recover : t -> [ `Replayed of int | `Nothing ]
(** After a crash: if the persisted log is marked COMMITTED, replay its
    entries durably and retire it, returning the entry count. *)
