(** What the serving engine and every fleet shard share: the common
    configuration checks, one simulated system with a realized persist
    strategy and a prefilled structure, the request schedule, operation
    dispatch, and the end-of-run latency and skip-bit summaries.

    {!Engine} drives one shard with several serving cores; the fleet routes
    one schedule over N of them.  Only the driving differs. *)

type config = {
  kind : Skipit_pds.Set_ops.kind;
  mode : Skipit_persist.Pctx.mode;
  spec : Skipit_workload.Ds_bench.strategy_spec;
  process : Arrival.process;
  workload : Workload.t;
  clients : int;
  requests : int;
  batch : int;
  depth : int;
  key_range : int;
  update_pct : int;
  prefill : int;
  seed : int;
}
(** The fields {!Engine.config} and the fleet's config have in common. *)

val validate : config -> (unit, string) result
(** Rejects non-positive sizes, an out-of-range update percentage, an
    invalid workload and incompatible structure x strategy combinations
    (Link-and-Persist on the BST). *)

type t = {
  sys : Skipit_core.System.t;
  strategy : Skipit_persist.Strategy.t;
  handle : Skipit_pds.Set_ops.handle;
}

val create :
  ?keep:(int -> bool) -> ?shuffle_seed:int -> params:Skipit_cache.Params.t -> config -> t
(** A fresh system on [params] (Skip It hardware iff the strategy wants
    it), the realized strategy, and the structure built and prefilled
    through a per-operation context by {!Skipit_workload.Ds_bench.prefill}
    — only the keys satisfying [keep], shuffled with [shuffle_seed]
    (default [config.seed]).  The prefill is untimed relative to any
    serving window: callers measure from [System.max_clock] afterwards. *)

val schedule : config -> rate:float -> Arrival.request array
(** The open-loop schedule at [rate] ops per 1000 cycles: the config's
    {!Workload} draws over its {!Arrival} process, seeded from
    [config.seed]. *)

val apply : Skipit_persist.Pctx.t -> Skipit_pds.Set_ops.handle -> Arrival.op -> int -> unit
(** Run one request's operation on the structure. *)

type summary = {
  achieved : float;  (** Served ops per 1000 cycles of [elapsed]. *)
  latency : Skipit_obs.Latency.summary option;
  dequeue_latency : Skipit_obs.Latency.summary option;
  gap : Skipit_obs.Latency.gap option;
}

val summarize :
  served:int ->
  elapsed:int ->
  intended:Skipit_sim.Stats.Sample.t ->
  dequeue:Skipit_sim.Stats.Sample.t ->
  summary
(** Achieved rate, the intended-arrival and dequeue latency distributions,
    and their coordinated-omission gap ([None]s when nothing was served). *)

val skip_counts : Skipit_core.System.t -> int * int
(** [(skip_dropped, submitted)] summed over every core's flush unit:
    writebacks the skip bit elided vs writebacks submitted. *)
