(** Microbenchmark kernels for §7.2 and §7.4's Figs 9, 10 and 13.

    A kernel is the instruction sequence the paper describes, run once on
    [threads] simulated cores of a fresh system.  The figures repeat each
    point and report the median (the paper repeats 50×; the simulator is
    deterministic, so repetitions vary only the region placement) and run
    their grids through {!Series.grid}. *)

open Skipit_tilelink

val sizes_default : int list
(** 64 B … 32 KiB in powers of two (Fig. 9's x axis). *)

type kernel =
  | Writeback of Message.wb_kind
      (** Fig. 9 and the §7.2 scalars: each thread dirties its disjoint
          share of the region, then writes every line back once and fences;
          elapsed = last fence − first writeback. *)
  | Contended of Message.wb_kind
      (** The contended counterpart of Fig. 9 (the paper measures
          non-contended lines): thread 0 dirties the region, then every
          thread writes back the {e same} region and fences, so the
          writebacks race through cross-core probes and the §5.4.1
          interlocks. *)
  | Write_wb_read of Message.wb_kind
      (** Fig. 10: per share — write every line, issue the writeback 10×,
          fence, then re-read every line; elapsed covers the whole
          sequence.  CBO.CLEAN re-reads hit; CBO.FLUSH re-reads refetch
          (≈2× total latency). *)
  | Redundant of Message.wb_kind * int
      (** Fig. 13: per line — store, one writeback, then this many
          redundant writebacks to the same line; one final fence.  With
          [Params.skip_it] the redundant ones are dropped at the L1 (§6.1).
          The paper uses CBO.FLUSH and notes results are identical for
          CBO.CLEAN; the figures use CBO.CLEAN because after an
          {e invalidating} first writeback the redundant ones miss the L1
          and are not skippable — see EXPERIMENTS.md. *)

val run :
  Skipit_cache.Params.t -> kernel -> threads:int -> size:int -> rep:int -> int
(** Elapsed cycles of one run of the kernel over a [size]-byte region on
    [threads] cores ([params] with its core count set to [threads]).
    Repetition [rep] offsets the region by [7 * rep] lines. *)
