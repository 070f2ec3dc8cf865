(** Open-loop request-serving engine over the persistent data structures.

    Where the §7.4 harness asks "how fast can a fixed thread count spin?",
    the engine asks the serving question: given requests arriving at a
    configured offered load ({!Arrival}), a bounded waiting room
    ({!Skipit_sim.Admission} — arrivals that find it full are {e shed}), and
    a group-commit persist {!Batcher} per serving core, what throughput does
    the system achieve and what does the latency {e distribution} from
    enqueue to persist-complete look like?

    One {!run} is a single simulation: build the system, prefill the
    structure, then serve the whole schedule.  A {!sweep} runs one
    independent simulation per offered-load point — each is a
    {!Skipit_par.Pool} job, and results are reduced in submission order, so
    every report is byte-identical at any [--jobs] width. *)

type config = {
  kind : Skipit_pds.Set_ops.kind;
  mode : Skipit_persist.Pctx.mode;
  spec : Skipit_workload.Ds_bench.strategy_spec;
  process : Arrival.process;
  workload : Workload.t;
      (** Key popularity / churn shape; {!Workload.default} reproduces the
          historical uniform draws byte-for-byte. *)
  clients : int;  (** Independent open-loop sessions. *)
  requests : int;  (** Schedule length per run. *)
  batch : int;  (** Epoch size; 1 = per-operation persists (no grouping). *)
  depth : int;  (** Waiting-room capacity; arrivals past it are shed. *)
  cores : int;  (** Serving cores, each with its own batcher. *)
  key_range : int;
  update_pct : int;
  prefill : int;
  seed : int;
  telemetry : bool;
      (** Install per-run attribution and the metrics trace listener for
          the serving window.  Recording never alters simulated timing:
          cycles and checksums are bit-identical on or off. *)
  window : int;  (** Metrics window width in simulated cycles. *)
}

val default : config
(** Hash table, automatic persistence, Skip It, Poisson arrivals, 16
    clients, 2000 requests, batch 8, depth 64, 1 serving core. *)

val validate : config -> (unit, string) result
(** Rejects non-positive sizes and incompatible structure x strategy
    combinations (Link-and-Persist on the BST). *)

type point = {
  offered : float;  (** Configured ops per 1000 cycles. *)
  achieved : float;  (** Persist-complete ops per 1000 cycles of serving. *)
  served : int;
  shed : int;
  n : int;
  latency : Skipit_obs.Latency.summary option;
      (** {e Intended}-arrival to persist-complete, cycles — the
          coordinated-omission-correct distribution; [None] when nothing
          was served. *)
  dequeue_latency : Skipit_obs.Latency.summary option;
      (** Issue (dequeue) to persist-complete — what a naive recorder
          would report.  Under saturating load this understates tails. *)
  gap : Skipit_obs.Latency.gap option;
      (** Recorded-vs-intended percentile gap; [None] when nothing was
          served. *)
  elapsed : int;  (** Serving-window cycles (first arrival to last commit). *)
  epochs : int;
  flushes : int;  (** Distinct-line writebacks replayed at epoch commits. *)
  deferred : int;  (** Persist points captured by the batchers. *)
  passthrough : int;  (** Persist points forwarded per-operation. *)
  fences : int;  (** Epoch fences issued. *)
  leaked : int;  (** Admission occupants after the run — always 0. *)
  attribution : (string * int) list;
      (** Exclusive per-stage cycle totals over all served requests, in
          stage order; empty unless [telemetry].  Stage cycles of each
          request sum to its intended-arrival→persist-complete span. *)
  attr_requests : int;  (** Requests attributed (= served when telemetry). *)
  attr_trimmed : int;
      (** Requests whose stage marks overshot their completion and were
          trimmed — should be 0; nonzero flags a hook charging
          off-critical-path work. *)
  attr_conserved : bool;
      (** Every attributed request's stage cycles summed exactly to its
          span. *)
  metrics : Skipit_obs.Metrics.t option;
      (** The run's windowed metrics registry, when [telemetry]. *)
  skip_dropped : int;
      (** Writebacks elided by the skip bit across all flush units —
          non-zero only for strategies with the skip-it hardware. *)
  wb_submitted : int;
      (** Writebacks actually submitted to the flush FSHRs. *)
}

val shed_fraction : point -> float

val skip_hit_rate : point -> float
(** [skip_dropped / (skip_dropped + wb_submitted)]; 0 when no flush
    traffic (or no skip hardware). *)

val run : ?params:Skipit_cache.Params.t -> config -> rate:float -> point
(** Raises [Invalid_argument] when {!validate} does.  When tracing is
    active, each served request is recorded as a
    {!Skipit_obs.Trace.Cls_serve} span from arrival to persist-complete. *)

val sweep :
  ?params:Skipit_cache.Params.t ->
  ?pool:Skipit_par.Pool.t ->
  config ->
  rates:float list ->
  point list
(** One independent {!run} per offered load, on [pool] when given. *)
