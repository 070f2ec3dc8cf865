(** A parallel map for independent simulation jobs.

    The experiment drivers (figures, ablations, data-structure benches, the
    serving engine's load sweeps, the crash campaign) are grids of
    {e independent} simulations: every job builds its own [System.create],
    its own [Rng] and its own stats, so no simulator state crosses a domain
    boundary.

    A pool of width N is the calling domain plus N−1 helper domains,
    spawned once by {!with_pool}.  {!map} publishes its items, and the
    caller and the helpers take item indices from one atomic counter until
    none is left.  Every result lands in its own slot and {!map} returns
    the slots in submission order, which is what makes every table, CSV
    and JSON artifact byte-identical to a sequential run at any width.

    Determinism contract for jobs:
    - a job must not read or write any state shared with another job (the
      tracing sink is domain-local, so [Trace.with_trace] inside a job is
      fine);
    - a job's result must depend only on its inputs (own seed, own system);
    - host-time measurements are allowed (they are reported, not reduced
      into simulated results). *)

type t

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns [jobs - 1] helper domains, runs [f], then
    stops and joins the helpers (also when [f] raises).  The width is
    exactly [jobs], which must be at least 1; width 1 spawns nothing.
    Spawn the pool before printing: the first [Domain.spawn] re-buffers
    [Format.std_formatter]. *)

val map : t option -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], run on the pool; results come back
    in list order.  If jobs raise, the first failing job by submission
    order re-raises in the caller with its backtrace.  [None], a width-1
    pool and a [map] called from inside a job all run [List.map] on the
    calling domain.  One domain at a time may call [map] on a pool. *)
