(** Open-loop arrival schedules for the serving engine.

    Unlike the closed-loop §7.4 harness (a fixed number of worker threads
    issuing the next operation as soon as the previous one returns), an
    open-loop client population decides {e when} requests arrive
    independently of how fast the server drains them — the regime where
    queueing delay, tail latency and load shedding exist at all.

    A schedule is one Bernoulli stream at the aggregate offered rate, each
    arrival owned by a client drawn uniformly from [clients]: the same law
    as merging one thinned stream per client, at a cost independent of the
    population, so 10{^5}–10{^6}-client fleet runs stay tractable.  The
    gaps, clients, operations and keys all come from one {!Skipit_sim.Rng}
    stream, so the whole schedule is a pure function of the configuration —
    the property the byte-identical [--jobs] reduction and the CI gates rely
    on.

    Inter-arrival gaps are sampled from a Bernoulli process (one trial per
    simulated cycle), i.e. the discrete-time Poisson process, using only
    integer and exact [Rng] arithmetic — no [libm] calls whose last-ulp
    behaviour could differ across hosts. *)

(** Arrival process shape.  [Bursty] alternates fixed-length on/off phases,
    shared by every client; arrivals are drawn only during on phases, at a rate scaled
    by [(on + off) / on] so the long-run offered load still matches the
    configured rate (a deterministic on/off — interrupted Poisson —
    process).  [Phased] imposes a piecewise-constant diurnal rate schedule:
    a repeating cycle of [(length, mult_milli)] segments (multiplier in
    integer thousandths) scaling the base poisson/bursty rate, normalised
    so the long-run offered load still matches the configured rate; a
    zero-multiplier segment is a dead trough (no arrivals).  [Degraded]
    suppresses arrivals inside fixed fault windows [(start, stop)]
    (half-open, in cycles) layered over any non-degraded base process:
    clients inside a fault window are dark, and — unlike a bursty off
    phase or a diurnal trough — their load is erased, not deferred, so a
    fault schedule can overlap a bursty or phased schedule without
    changing the draws outside the windows.  Nesting order is
    [Degraded ⊃ Phased ⊃ {Poisson, Bursty}]. *)
type process =
  | Poisson
  | Bursty of { on : int; off : int }
  | Phased of { phases : (int * int) list; base : process }
  | Degraded of { windows : (int * int) list; base : process }

val default_bursty : process
(** 2000 cycles on, 6000 off: 4x the average rate in one quarter of the
    time. *)

val process_name : process -> string

val process_of_name : string -> process option
(** ["poisson"], ["bursty"] (the default phases), ["bursty:ON/OFF"],
    ["phases:LENxMILLI[,LENxMILLI]:BASE"] ([BASE] poisson/bursty), or
    ["degraded:S-E[,S-E]:BASE"] where [BASE] is any non-degraded process
    name (windows sorted, disjoint, non-empty), including a phased one. *)

val with_phases : process -> (int * int) list -> process option
(** [with_phases process phases] wraps [process] in a diurnal schedule at
    the canonical nesting depth: below any [Degraded] windows, above the
    poisson/bursty base.  [None] if [process] is already phased or the
    phase list is invalid. *)

val phases_of_spec : string -> (int * int) list option
(** CLI phase spec ["LEN:MULT[,LEN:MULT]"] with [MULT] a decimal rate
    multiplier, e.g. ["36000:0.25,12000:2.5"]; parsed once into integer
    thousandths. *)

val skip_gaps : process -> int -> int
(** [skip_gaps process t] is the earliest cycle [>= t] at which an arrival
    is possible (skips bursty off phases, zero-multiplier diurnal
    segments, and degraded windows). *)

val mult_milli_at : process -> int -> int
(** Diurnal rate multiplier (integer thousandths) in force at a cycle;
    1000 everywhere for non-phased processes. *)

val next_arrival : process -> Skipit_sim.Rng.t -> p:float -> from:int -> int
(** [next_arrival process rng ~p ~from] is the first cycle [>= from] whose
    Bernoulli trial succeeds: one [Rng.chance rng (p * multiplier)] per
    active cycle (gaps draw nothing).  After [10_000_001] failed trials it
    gives up and returns the last cycle tried.  {!schedule} advances through
    this walk, which draws the stream a constant-rate run at a time
    ({!Skipit_sim.Rng.first_below}) with no per-trial allocation. *)

type op = Insert | Delete | Contains

val op_name : op -> string

type request = {
  arrival : int;  (** Cycles after the serving window opens. *)
  client : int;  (** Owning session. *)
  seq : int;  (** Per-session sequence number. *)
  op : op;
  key : int;  (** In [\[1, key_range\]]. *)
}

type draw = Skipit_sim.Rng.t -> at:int -> op * int
(** Per-arrival op/key sampler: given the schedule's stream and the arrival
    cycle, produce the operation and key.  Must be a pure
    function of the rng state and [at] so schedules stay bit-identical. *)

val uniform_draw : key_range:int -> update_pct:int -> draw
(** The historical draw: uniform keys, update split by [Rng.bool]. *)

val schedule :
  process:process ->
  draw:draw ->
  rate:float ->
  clients:int ->
  requests:int ->
  key_range:int ->
  update_pct:int ->
  seed:int ->
  unit ->
  request array
(** [rate] is the aggregate offered load in operations per 1000 cycles,
    split evenly across [clients] sessions.  The result holds [requests]
    entries sorted by arrival, at most one per cycle.  Equal configurations
    give equal schedules.  [draw] samples each arrival's op and key (see
    {!Workload.draw}; {!uniform_draw} reproduces the pre-workload
    schedules byte-for-byte).  [key_range] must be positive; [update_pct]
    is the draw's business and is not read here. *)
