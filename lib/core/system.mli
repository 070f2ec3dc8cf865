(** The simulated SoC: cores with private L1 data caches, a shared inclusive
    L2, and DRAM as the persistence domain — the paper's experimental
    platform (§7.1) as one object.

    This is the main entry point of the library.  Build a system from a
    {!Config} parameter block, then either drive individual cores through
    the instruction wrappers ({!load}, {!store}, ...), or run concurrent
    workloads with
    {!module:Thread}. *)

module Params = Skipit_cache.Params
module Instr = Skipit_cpu.Instr

type t

val create : Params.t -> t
(** Raises [Invalid_argument] if the parameter block fails
    [Params.validate]. *)

val params : t -> Params.t
val n_cores : t -> int

val lsu : t -> int -> Skipit_cpu.Lsu.t
val dcache : t -> int -> Skipit_l1.Dcache.t
val l2 : t -> Skipit_l2.Inclusive_cache.t

val l3 : t -> Skipit_l2.Memside_cache.t option
(** The memory-side L3, when [Params.l3] is set. *)

val dram : t -> Skipit_mem.Dram.t

val persist_log : t -> Skipit_mem.Persist_log.t
(** Ordered record of every line that became durable — the observability
    behind the §4 memory-semantics tests. *)

val allocator : t -> Skipit_mem.Allocator.t
(** A system-wide bump allocator for workload data. *)

(** Run one instruction on [core] at that core's current clock. *)

val load : t -> core:int -> int -> int
val store : t -> core:int -> int -> int -> unit
val cas : t -> core:int -> int -> expected:int -> desired:int -> bool
val clean : t -> core:int -> int -> unit
val flush : t -> core:int -> int -> unit
val inval : t -> core:int -> int -> unit
val zero : t -> core:int -> int -> unit
val fence : t -> core:int -> unit
val clock : t -> core:int -> int

val max_clock : t -> int
(** Latest core clock — the experiment's elapsed cycle count. *)

val peek_word : t -> int -> int
(** Functional, coherent read of the current architectural value (prefers a
    dirty L1 copy, then L2, then DRAM); costs no simulated time. *)

val poke_word : t -> int -> int -> unit
(** Initialise DRAM contents directly (test fixtures); bypasses caches —
    only sound before any cached access to the location. *)

val persisted_word : t -> int -> int
(** What a crash at this instant would leave at the address (DRAM only). *)

val crash : t -> unit
(** Power failure: all volatile cache state vanishes; DRAM (the NVMM)
    survives; core clocks are preserved.  All in-flight machinery —
    MSHRs, FSHRs, flush-queue admissions, writeback units, L2 banks and
    ListBuffer, DRAM channels — is reset to empty, so re-running a
    workload on the same system inherits no phantom occupancy. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] a faithful copy of [src], overwriting whatever [dst] held:
    every cache, LSU, port, memside port, the DRAM contents, allocator
    and persist log.  Typed and in place: [dst]'s components and the
    closures wiring them stay [dst]'s own, so the two systems share no
    mutable state afterwards.  [dst] must come from the same parameters. *)

val emit_trace_meta : t -> unit
(** When tracing is active, emit one [Meta] event per component track
    (L1s, MSHRs, flush queues, ports, L2, L3, DRAM) so the exported
    timeline declares the full topology even for components that emit no
    events during the run.  No-op when tracing is off. *)

val stats_report : t -> (string * int) list
(** Aggregated named counters from all components, prefixed by component
    (["l1.0.load_hits"], ["l2.dram_writebacks"], ["fu.0.skip_dropped"], ...).
    Every port boundary contributes its beat/stall/occupancy-wait counters
    under a ["port."] prefix (["port.l1.0.a_beats"], ["port.l2.mem.stalls"],
    ...). *)
