(** Recovery code under a cycle bound: the one primitive behind the crash
    campaign's repair and the fleet's repair and hint replay.

    A structure that a crash left inconsistent can send its repair, or a
    replayed operation, round a loop that never ends.  Run here, such a
    body is stopped once it has taken 10{^7} simulated cycles, and the
    caller reports a hang rather than spinning forever.  A healthy step
    takes far less: a shard's repair at the fleet's default key range
    under 10{^5} cycles. *)

val run : Skipit_core.System.t -> doing:(unit -> string) -> (unit -> unit) -> (int, string) result
(** [run sys ~doing f] runs [f] as the only task, on core 0: [Ok cycles],
    the simulated cycles it took, or, once it has run past the bound,
    [Error "D ran past 10000000 cycles"] with [D = doing ()] (read after
    the stop, so [f] may update what it names).  A stopped body's fibers
    are abandoned mid-instruction, as at a crash. *)
