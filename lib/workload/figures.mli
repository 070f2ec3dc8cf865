(** Regeneration of every figure in the paper's evaluation (§7).

    Each function runs the corresponding experiment on the simulator (plus
    the {!Skipit_xarch} analytic models for the commercial CPUs of
    Figs 11/12) and prints the series as an aligned text table — the rows
    behind the paper's plots.  [quick] trades repetitions / sweep density /
    measurement-window length for speed (used by the default bench run).

    Every figure is a grid of independent simulations, run by
    {!Series.grid} on [pool] when given, so the printed output is
    byte-identical at any pool width.

    [params] overrides the simulated platform (core count, [l2_banks],
    topology, L3, ...); figures that sweep thread counts (Fig 9)
    extend the sweep in powers of two up to [n_cores].  The data-structure
    figures (14-16) take every other setting but always run 2 threads,
    whatever [n_cores] says. *)

val median_cycles :
  Skipit_cache.Params.t -> Micro.kernel -> threads:int -> size:int -> repeats:int -> float
(** The median of {!Micro.run} over repetitions [0 .. repeats - 1]: one
    point of a microbenchmark figure. *)

val by_name :
  string ->
  (?quick:bool ->
  ?pool:Skipit_par.Pool.t ->
  ?params:Skipit_cache.Params.t ->
  Format.formatter ->
  unit)
  option
(** Lookup by {!names}:
    - "scalar": the §7.2 headline numbers (single-line CBO.X median/σ and
      the full-32 KiB flush, 1 thread);
    - "fig9": CBO.X latency vs writeback size for 1/2/4/8 threads;
    - "fig10": write – writeback ×10 – fence – read, CBO.CLEAN vs
      CBO.FLUSH, 1 and 8 threads;
    - "fig11", "fig12": cross-architecture writeback latency at 1 and 8
      threads;
    - "fig13": naïve vs Skip It under redundant writebacks, 1 and 8
      threads;
    - "fig14": data-structure throughput at 5 % updates: 4 structures × 3
      persistence algorithms × 5 strategies (+ non-persistent baseline);
    - "fig15": throughput vs update percentage;
    - "fig16": BST (10 k keys) sensitivity to the FliT hash-table size;
    - "all": every figure above, in order. *)

val names : string list
