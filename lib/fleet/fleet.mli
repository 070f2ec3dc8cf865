(** Sharded serving fleet: a consistent-hash router over N independent
    simulated systems, with K-way replication, crash-driven failover, and
    graceful degradation.

    The fleet is the "millions of users" layer over the PR-5 serving
    engine: each shard is its own {!Skipit_core.System} (one simulated
    domain) running a persistent structure behind a group-commit
    {!Skipit_serve.Batcher} and a bounded waiting room; the router
    consistent-hashes every key to [replicas] shards ({!Ring}) and drives
    the whole fleet from one open-loop {!Skipit_serve.Arrival} schedule in
    {e fleet time} (schedule cycles).  Shard service cost is measured by
    running each operation on the shard's own simulated hierarchy and
    charging the observed cycle delta, so fleet results inherit the
    simulator's timing model without coupling shard clocks to each other.

    Robustness machinery, all deterministic and seeded:
    - a fault schedule kills shards mid-run through
      {!Skipit_core.System.crash} (volatile state wiped, NVMM survives);
    - the router detects a dead shard on first contact after paying a
      [timeout] penalty, fails reads over to the next live replica, and
      hint-logs writes for the dead one (hinted handoff);
    - writes whose every executed replica died before commit are retried
      with capped exponential backoff plus seeded jitter; after
      [retry_max] attempts — or when the waiting room is full — the
      request is shed, never parked (graceful degradation, no hangs);
    - a detected shard is repaired through the PR-4 audit path (post-crash
      {!Skipit_audit.Invariant} sweep, then the structure's [repair]),
      replays its hint log, and only then re-admits traffic; a repair or
      a replay that runs past a fixed bound of simulated cycles ends the
      run with a [fleet-hang] violation naming the shard and the operation;
    - [served + shed + in_flight = issued] is asserted at every fleet
      checkpoint (crash, detection, re-admission, quiesce) and reported as
      {!Skipit_audit.Invariant.violation} records;
    - at quiesce, durable linearizability is verified on every replica by
      {!Skipit_audit.Dlin}, the campaign's checker: the prefill the replica
      owns is the initial state, served writes are acked in the order they
      last executed, and writes that touched a replica but were shed are
      in flight.  Each key must hold its last acked write's value or an
      in-flight write's; a key the replica does not own must be absent. *)

module Arrival = Skipit_serve.Arrival
module Workload = Skipit_serve.Workload

(** One scheduled shard kill, in fleet time. *)
type fault = { at : int; shard : int }

type fault_schedule =
  | No_faults
  | Kill of fault list  (** Explicit kill times, sorted or not. *)
  | Seeded of int  (** N kills at seeded times/shards mid-run. *)

val fault_schedule_name : fault_schedule -> string
val fault_schedule_of_name : string -> fault_schedule option
(** ["none"], ["rand:N"], or ["AT:SHARD\[,AT:SHARD\]"]. *)

type config = {
  shards : int;
  replicas : int;  (** Copies of every key, [1 <= replicas <= shards]. *)
  vnodes : int;  (** Ring virtual nodes per shard. *)
  kind : Skipit_pds.Set_ops.kind;
  mode : Skipit_persist.Pctx.mode;
  spec : Skipit_workload.Ds_bench.strategy_spec;
  process : Arrival.process;
  workload : Workload.t;
      (** Key popularity / churn shape ({!Skipit_serve.Workload}); skew
          concentrates traffic on few ring positions, stressing replica
          balance and per-shard admission. *)
  clients : int;
  requests : int;
  depth : int;  (** Waiting-room slots per shard. *)
  batch : int;  (** Group-commit epoch size per shard; a short epoch commits after 600 cycles. *)
  retry_max : int;
  backoff : int;  (** Base backoff in cycles; attempt i waits [backoff * 2^i]. *)
  backoff_cap : int;
  timeout : int;  (** Dead-shard detection penalty in cycles. *)
  fanout_pct : int;  (** Percent of reads that become multi-gets of 4 sub-reads. *)
  key_range : int;
  update_pct : int;
  prefill : int;
  seed : int;
  faults : fault_schedule;
  drop_persists : int option;
      (** Test-only injected fault: this shard's strategy silently elides
          every persist point — after it crashes, the fleet verifier must
          catch the durability violation. *)
}

val default : config
val validate : config -> (unit, string) result

type shard_stat = {
  s_id : int;
  s_state : string;  (** ["live"] (or a terminal anomaly) at quiesce. *)
  s_executed : int;  (** Operations run on this shard (incl. replication). *)
  s_commits : int;  (** Epochs committed. *)
  s_shed : int;  (** Requests shed at this shard's waiting room. *)
  s_crashes : int;
  s_hints : int;  (** Hinted-handoff writes replayed into this shard. *)
  s_recovery : int;  (** Cycles spent in audit + repair + hint replay. *)
  s_busy : int;  (** Service cycles executed. *)
}

type point = {
  offered : float;
  achieved : float;  (** Served ops per 1000 fleet cycles. *)
  served : int;
  shed : int;
  partial : int;  (** Multi-gets served with missing sub-reads. *)
  n : int;
  latency : Skipit_obs.Latency.summary option;  (** Intended-arrival → ack. *)
  dequeue_latency : Skipit_obs.Latency.summary option;  (** Service start → ack. *)
  gap : Skipit_obs.Latency.gap option;  (** Coordinated-omission gap. *)
  elapsed : int;
  failovers : int;  (** Requests served by a non-primary replica. *)
  crashes : int;
  repairs : int;  (** Detection → audit/repair → re-admission cycles run. *)
  recovery_cycles : int;
  retries : int;
  hints : int;
  checkpoints : int;  (** Conservation checkpoints evaluated. *)
  violations : string list;
      (** Conservation, post-crash invariant, and durability failures;
          empty on a healthy run. *)
  leaked : int;  (** Waiting-room slots still held at quiesce (must be 0). *)
  shards : shard_stat array;
}

val shed_fraction : point -> float

val run : config -> rate:float -> point
(** One fleet run at [rate] offered ops per 1000 cycles.  Deterministic:
    equal configurations give equal points, at any [--jobs] width. *)

val sweep : ?pool:Skipit_par.Pool.t -> config -> rates:float list -> point list

(** {1 Failure reproducers} *)

val write_reproducer : string -> config -> rate:float -> unit
(** Key=value reproducer file, campaign-style. *)

val read_reproducer : string -> (config * float, string) result
(** [Error] on an unreadable file, a missing key, or an unknown or
    unparseable value; only [keys], [churn] and [drop_persists] may be
    absent (they take their {!default}). *)

val shrink : config -> rate:float -> config * point
(** Halve [requests] while the run still reports violations; returns the
    last failing config and its point (the input config's point if it does
    not fail at all). *)
