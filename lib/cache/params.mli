(** System-wide microarchitectural parameters.

    One record gathers every tunable of the simulated SoC: geometries,
    structure capacities, per-stage cycle costs, and the feature toggles the
    ablation benches flip (Skip It, flush-queue coalescing, the widened data
    array of §5.2).  [boom_default] is calibrated so that a single CBO.X of
    one dirty line costs ≈100 cycles end-to-end, matching §7.2. *)

(** Optional memory-side L3 between the LLC and DRAM (§7.4's deeper-
    hierarchy hypothesis; see the hierarchy ablation). *)
type l3_config = {
  l3_geom : Geometry.t;
  l3_latency : int;  (** Access latency seen by the L2. *)
  l3_banks : int;
  l3_bank_busy : int;
}

type t = {
  n_cores : int;
  l1_geom : Geometry.t;
  l2_geom : Geometry.t;
  bus_bytes : int;  (** TileLink data-bus width; 16 B in SonicBOOM (Fig. 3). *)
  (* L1 structures *)
  l1_mshrs : int;
  n_fshrs : int;  (** 8 in the paper (§5.2). *)
  flush_queue_depth : int;
  l1_load_to_use : int;  (** Load-hit latency through the LSU. *)
  l1_store_commit : int;  (** STQ fire + hit store cost. *)
  cbo_issue_cost : int;
      (** STQ fire + metadata check for a CBO.X — slightly cheaper than a
          store (no store data to move). *)
  l1_meta_access : int;  (** Metadata array read/modify (one state of Fig. 7). *)
  l1_fill_buffer_wide : int;  (** Widened data array: whole line in 1 cycle. *)
  l1_fill_buffer_narrow : int;
      (** Unmodified array: one word per cycle, so [words_per_line] cycles —
          the §5.2 optimisation ablation. *)
  (* Interconnect *)
  link_latency : int;  (** One-way header latency L1↔L2. *)
  (* L2 structures *)
  l2_mshrs : int;  (** Per NUCA bank. *)
  l2_list_buffer : int;
      (** ListBuffer entries in front of the L2 MSHRs (§3.4), per NUCA
          bank: channel-C requests that cannot get an MSHR wait here; a
          full buffer pushes back on the senders. *)
  l2_banks : int;
      (** Address-interleaved NUCA banks (line-address mod [l2_banks]).
          1 (default) = the paper's monolithic inclusive L2; each extra
          bank carries its own MSHR file, ListBuffer, directory and
          BankedStore slices.  Must be a power of two ≤ L2 sets. *)
  l2_slices : int;  (** BankedStore data slices per NUCA bank. *)
  l2_slice_busy : int;  (** BankedStore slice occupancy per line access. *)
  l2_tag_access : int;  (** Directory lookup/update. *)
  (* Memory *)
  dram_channels : int;
  dram_read_latency : int;
  dram_write_latency : int;
  dram_occupancy : int;  (** Channel occupancy per line transfer. *)
  (* Core *)
  fence_base_cost : int;
  cas_extra : int;  (** Extra cycles an AMO/CAS pays over a plain store hit. *)
  nack_retry_delay : int;  (** LSU retry interval after a nack (§3.3). *)
  (* Feature toggles *)
  skip_it : bool;
  coalescing : bool;
      (** Flush-queue coalescing of dependent CBO.X (§5.3).  Off by default:
          §5.3 describes coalescing as permitted, and the measured Fig. 13
          gap implies the shipped hardware rarely absorbs the redundant
          requests this way (with it on, the queue filters redundancy almost
          as well as Skip It — see the coalescing ablation). *)
  wide_data_array : bool;  (** §5.2 single-cycle line read. *)
  l2_trivial_skip : bool;
      (** LLC drops the DRAM write when its dirty bit is clear (§5.5) —
          present even without Skip It; ablatable. *)
  l3 : l3_config option;  (** [None] = the paper's platform (DRAM behind L2). *)
  l1_replacement : [ `Lru | `Random ];
      (** BOOM's data cache replaces pseudo-randomly; [`Lru] (the default
          here) keeps runs order-insensitive for the oracle tests. *)
  async_stores : bool;
      (** §3.2: stores retire at commit and drain from the STQ in the
          background (BOOM's actual behaviour; the ROB considers a store
          complete once the data cache accepts it).  Off = stores block the
          core until the cache completes them, the stricter model, which
          only unit tests run: no figure, [ablate] row, serve, fleet or
          audit run turns it off. *)
  stq_entries : int;  (** Store-queue capacity (32 in SonicBOOM, Fig. 2). *)
  topology : [ `Crossbar | `Shared_bus | `Banked_bus ];
      (** Interconnect shape between the L1 clients and the LLC.
          [`Crossbar] (the default, and what the SiFive generator elaborates
          for a BOOM tile) gives every L1↔L2 port private channel wiring;
          [`Shared_bus] makes all client ports contend for one set of A/C/D
          channels — an ablation for small SoCs; [`Banked_bus] gives each
          NUCA bank one shared set of channels that all clients contend
          for — the per-bank crossbar of a banked LLC. *)
}

val boom_default : t
(** Dual-purpose default: the §7.1 platform (32 KiB L1 / 512 KiB shared L2),
    one core; override [n_cores] and toggles per experiment. *)

val with_cores : t -> int -> t
val with_skip_it : t -> bool -> t

val with_l2_banks : t -> int -> t
(** Set the NUCA bank count (power of two ≤ L2 sets). *)

val with_l3 : t -> t
(** Add a 4 MiB 16-way memory-side L3 (the deeper-hierarchy experiment). *)

val line_bytes : t -> int

val data_beats : t -> int
(** Beats to move one line over the bus ([line_bytes / bus_bytes] = 4). *)

val fill_buffer_cycles : t -> int
(** Honours [wide_data_array]. *)

val validate : t -> (unit, string) result
(** Sanity-check cross-field constraints (L1/L2 line sizes equal, positive
    capacities, bus divides line, [l2_banks] a power of two ≤ sets, ...). *)
