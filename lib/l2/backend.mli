(** The LLC's memory-side port.

    The paper's platform has DRAM directly behind the L2; §7.4 hypothesises
    that a deeper hierarchy (an L3/L4) would increase writeback latencies
    and thus Skip It's savings.  To test that, the inclusive cache talks to
    a {!Skipit_tilelink.Port.Memside} agent port that is either DRAM itself
    ({!of_dram}) or a {!Memside_cache} in front of it
    ({!Memside_cache.backend}).  The port counts beats, stalls and
    occupancy-wait cycles at the boundary; the operation semantics the L2
    relies on are documented in {!Skipit_tilelink.Port.Memside.ops}. *)

val of_dram :
  ?name:string ->
  beats_per_line:int ->
  ?max_inflight:int ->
  ?burst_beat_cost:int ->
  Skipit_mem.Dram.t ->
  Skipit_tilelink.Port.Memside.t
(** DRAM is the persistence domain itself: [write_line] = [persist_line],
    [persist_if_dirty] and [discard_line] are no-ops, nothing is volatile.
    Channel-queueing inside the DRAM controller is reported as the port's
    stall/wait counters.  [max_inflight] / [burst_beat_cost] configure the
    AXI-style outstanding-transaction/burst model of
    {!Skipit_tilelink.Port.Memside.create} (defaults timing-neutral). *)
