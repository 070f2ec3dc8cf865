(** Ablations of the design choices §5–§6 call out, beyond the paper's own
    figures.  Each returns labelled series suitable for the text tables; the
    bench harness prints them after the figure reproductions.

    1. {b FSHR count} — the writeback MLP that produces Fig. 9's slope;
    2. {b flush-queue depth} — buffering lets the LSU commit CBO.X early
       (§5.2); depth 0 makes writebacks synchronous;
    3. {b skip-path decomposition} — none vs L2-trivial-skip-only (§5.5) vs
       full Skip It (§6) on the redundant-writeback microbenchmark;
    4. {b data-array width} — the §5.2 single-cycle line read vs the
       original word-per-cycle array;
    5. {b coalescing} — §5.3 merging of back-to-back CBO.X to one line. *)

(** Each ablation is a grid of independent per-config simulations, run by
    {!Series.grid} on [pool] when given, so the tables are byte-identical
    at any pool width. *)

val fshr_count : ?counts:int list -> ?pool:Skipit_par.Pool.t -> unit -> Series.t
(** x = FSHR count, y = cycles to flush the full 32 KiB L1 (1 thread). *)

val queue_depth : ?depths:int list -> ?pool:Skipit_par.Pool.t -> unit -> Series.t
(** x = queue depth, y = cycles for a 64-line store+flush burst ending in
    one fence. *)

val skip_decomposition : ?pool:Skipit_par.Pool.t -> unit -> Series.t list
(** Redundant-writeback latency (Fig. 13 workload, 4 KiB) for the three
    configurations. *)

val run_all : ?pool:Skipit_par.Pool.t -> Format.formatter -> unit
