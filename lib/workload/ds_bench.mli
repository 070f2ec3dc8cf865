(** Throughput harness for the persistent data-structure comparison
    (§7.4, Figs 14–16).

    A run builds a fresh system (Skip It enabled only for the Skip-It
    strategy), creates and prefills the structure to half the key range,
    then lets [threads] worker threads execute a read/update mix for a
    fixed window of simulated cycles.  Updates split evenly between inserts
    and deletes of uniformly random keys (§7.4) unless [skew_milli] asks
    for Zipf keys.  Reported throughput is
    operations per 1000 simulated cycles. *)

(** The compared series.  [Baseline] is the non-persistent dotted line of
    Figs 14/15. *)
type strategy_spec =
  | Plain
  | Flit_adjacent
  | Flit_hash of int  (** counter-table slots *)
  | Link_and_persist
  | Skipit
  | Baseline

val spec_name : strategy_spec -> string

val default_specs : strategy_spec list
(** The five compared methods plus the baseline, with the paper's default
    FliT table of 2{^16} slots. *)

val realize :
  strategy_spec -> Skipit_persist.Mem_port.t -> Skipit_mem.Allocator.t -> Skipit_persist.Strategy.t
(** The strategy over the given memory port, with any auxiliary memory
    (the FliT counter table) allocated from [alloc]. *)

val wants_skip_it_hw : strategy_spec -> bool

val compatible : Skipit_pds.Set_ops.kind -> strategy_spec -> bool
(** [false] for the one excluded combination family: a word-bit strategy
    (Link-and-Persist) on a structure that uses spare word bits itself
    (the BST). *)

val spec_of_name : string -> strategy_spec option
(** Inverse of {!spec_name}; accepts ["flit-hash"] (the default 2{^16}-slot
    table) and ["flit-hash/N"]. *)

val prefill_keys : key_range:int -> prefill:int -> int array
(** The prefilled key set, ascending: every [(key_range / prefill)]-th key
    from 1; empty when [prefill = 0]. *)

val prefill :
  ?keep:(int -> bool) ->
  Skipit_core.System.t ->
  Skipit_pds.Set_ops.kind ->
  Skipit_persist.Pctx.t ->
  key_range:int ->
  prefill:int ->
  seed:int ->
  Skipit_pds.Set_ops.handle
(** Build the structure on core 0 of [sys] (sized for [key_range]) and
    insert {!prefill_keys}, shuffled with [seed], through [pctx] — only
    the keys satisfying [keep] (default: all).  The one build-and-prefill
    rule shared by the closed-loop harness, the serving engine and every
    fleet shard. *)

type workload = {
  threads : int;  (** 2 in the paper's runs. *)
  key_range : int;
  update_pct : int;  (** 0–100; each update is insert or delete 50/50. *)
  prefill : int;  (** Keys inserted before measuring. *)
  window : int;  (** Measured simulated cycles. *)
  seed : int;
  skew_milli : int;
      (** Zipf θ over the key space in thousandths, drawn with
          {!Skipit_sim.Zipf} (0 = uniform, the paper's setting; 990 = heavy
          skew — hot lines see many more redundant writebacks).  Rank r is
          key r + 1. *)
}

val default_workload : workload

val throughput :
  ?params:Skipit_cache.Params.t ->
  kind:Skipit_pds.Set_ops.kind ->
  mode:Skipit_persist.Pctx.mode ->
  spec:strategy_spec ->
  workload ->
  float
(** Ops per 1000 cycles; [nan] when the combination is incompatible
    (Link-and-Persist × BST). *)
