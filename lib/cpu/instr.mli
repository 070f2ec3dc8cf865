(** The memory-instruction vocabulary of the simulated core.

    These are the RV64 operations relevant to the paper: ordinary loads and
    stores, AMO compare-and-swap, the two new cache-management operations
    CBO.CLEAN / CBO.FLUSH (§2.6), the strongest fence (FENCE RW,RW — the
    only fence implemented on BOOM, §4), and a compute delay standing in for
    non-memory work between accesses. *)

type t =
  | Load of { addr : int }
  | Store of { addr : int; value : int }
  | Cas of { addr : int; expected : int; desired : int }
  | Cbo_clean of { addr : int }
  | Cbo_flush of { addr : int }
  | Cbo_inval of { addr : int }  (** CMO extension: discard without writeback. *)
  | Cbo_zero of { addr : int }  (** CMO extension: zero-fill the line. *)
  | Fence
  | Delay of int  (** [Delay n]: n cycles of non-memory work. *)

val touches : t -> int option
(** The address the instruction operates on, if any. *)
