(** Microbenchmark drivers for §7.2 and §7.4's Fig. 13.

    Each driver builds a fresh system per repetition, runs the instruction
    sequence the paper describes on [threads] simulated cores, and reports
    the median elapsed cycles over the repetitions (the paper repeats 50×
    and reports medians; the simulator is deterministic, so repetitions vary
    only the region placement). *)

open Skipit_tilelink

val sizes_default : int list
(** 64 B … 32 KiB in powers of two (Fig. 9's x axis). *)

(** {1 Job-list form}

    Every driver is a grid of independent simulations.  A [prepared]
    experiment exposes the grid as self-contained jobs (each builds its own
    system and RNG — nothing crosses a domain boundary) plus a pure reducer
    over the results in submission order, so running the jobs on a
    {!Skipit_par.Pool} of any width produces byte-identical tables. *)

type 'r prepared = {
  jobs : (unit -> float) list;
  reduce : float list -> 'r;
}

val run_prepared : ?pool:Skipit_par.Pool.t -> 'r prepared list -> 'r list
(** Run the concatenated job lists of a batch of experiments — on the pool
    when given, inline otherwise — and reduce each experiment's slice. *)

val prep_single_line :
  ?params:Skipit_cache.Params.t -> kind:Message.wb_kind -> repeats:int -> unit ->
  (float * float) prepared
(** One job per repetition. *)

val prep_writeback_sweep :
  ?params:Skipit_cache.Params.t -> kind:Message.wb_kind -> threads:int ->
  sizes:int list -> repeats:int -> unit -> Series.t prepared
(** One job per sweep point (size); repetitions run inside the job. *)

val prep_write_wb_read :
  ?params:Skipit_cache.Params.t -> kind:Message.wb_kind -> threads:int ->
  sizes:int list -> repeats:int -> unit -> Series.t prepared

val prep_contended_sweep :
  ?params:Skipit_cache.Params.t -> kind:Message.wb_kind -> threads:int ->
  sizes:int list -> repeats:int -> unit -> Series.t prepared
(** The contended counterpart of Fig. 9 (the paper measures non-contended
    lines): every thread writes back the {e same} region, so the writebacks
    race through cross-core probes and the §5.4.1 interlocks.  One thread
    dirties the region; all threads then write it back and fence. *)

val prep_redundant :
  ?params:Skipit_cache.Params.t -> kind:Message.wb_kind -> skip_it:bool ->
  threads:int -> redundant:int -> sizes:int list -> repeats:int -> unit ->
  Series.t prepared

(** {1 Sequential wrappers} *)

val single_line : ?params:Skipit_cache.Params.t -> kind:Message.wb_kind -> repeats:int -> unit -> float * float
(** [(median, stddev)] cycles for one CBO.X of a dirty line plus the fence —
    the §7.2 "≈100 cycles (σ: 13.2)" scalar. *)

val writeback_sweep :
  ?params:Skipit_cache.Params.t ->
  kind:Message.wb_kind ->
  threads:int ->
  sizes:int list ->
  repeats:int ->
  unit ->
  Series.t
(** Fig. 9: dirty a region, then each thread writes back its disjoint share
    sequentially and fences once; elapsed = last fence − first writeback. *)

val write_wb_read :
  ?params:Skipit_cache.Params.t ->
  kind:Message.wb_kind ->
  threads:int ->
  sizes:int list ->
  repeats:int ->
  unit ->
  Series.t
(** Fig. 10: per share — write every line, issue the writeback 10×, fence,
    then re-read every line; elapsed covers the whole sequence.  CBO.CLEAN
    re-reads hit; CBO.FLUSH re-reads refetch (≈2× total latency). *)

val redundant :
  ?params:Skipit_cache.Params.t ->
  kind:Message.wb_kind ->
  skip_it:bool ->
  threads:int ->
  redundant:int ->
  sizes:int list ->
  repeats:int ->
  unit ->
  Series.t
(** Fig. 13: per line — store, one writeback, then [redundant] more
    writeback passes over the region, one final fence.  With [skip_it] the
    redundant passes are dropped at the L1 (§6.1).  The paper uses
    CBO.FLUSH and notes results are identical for CBO.CLEAN; we default the
    harness to CBO.CLEAN because after an {e invalidating} first writeback
    the redundant ones miss the L1 and are not skippable — see
    EXPERIMENTS.md. *)
