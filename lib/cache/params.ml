type l3_config = {
  l3_geom : Geometry.t;
  l3_latency : int;
  l3_banks : int;
  l3_bank_busy : int;
}

type t = {
  n_cores : int;
  l1_geom : Geometry.t;
  l2_geom : Geometry.t;
  bus_bytes : int;
  l1_mshrs : int;
  n_fshrs : int;
  flush_queue_depth : int;
  l1_load_to_use : int;
  l1_store_commit : int;
  cbo_issue_cost : int;
  l1_meta_access : int;
  l1_fill_buffer_wide : int;
  l1_fill_buffer_narrow : int;
  link_latency : int;
  l2_mshrs : int;
  l2_list_buffer : int;
  l2_banks : int;
  l2_slices : int;
  l2_slice_busy : int;
  l2_tag_access : int;
  dram_channels : int;
  dram_read_latency : int;
  dram_write_latency : int;
  dram_occupancy : int;
  fence_base_cost : int;
  cas_extra : int;
  nack_retry_delay : int;
  skip_it : bool;
  coalescing : bool;
  wide_data_array : bool;
  l2_trivial_skip : bool;
  l3 : l3_config option;
  l1_replacement : [ `Lru | `Random ];
  async_stores : bool;
  stq_entries : int;
  topology : [ `Crossbar | `Shared_bus | `Banked_bus ];
}

let boom_default =
  {
    n_cores = 1;
    l1_geom = Geometry.boom_l1;
    l2_geom = Geometry.boom_l2;
    bus_bytes = 16;
    l1_mshrs = 8;
    n_fshrs = 8;
    flush_queue_depth = 8;
    l1_load_to_use = 3;
    l1_store_commit = 4;
    cbo_issue_cost = 3;
    l1_meta_access = 2;
    l1_fill_buffer_wide = 1;
    l1_fill_buffer_narrow = 8;
    link_latency = 10;
    (* Enough L2 MSHRs that the DRAM round trip each one holds does not cap
       the 8-thread scaling of Fig. 9 (the SiFive generator makes this a
       free parameter). *)
    l2_mshrs = 64;
    l2_list_buffer = 16;
    (* NUCA banks: 1 = the monolithic L2 of the paper's platform.  Each
       bank replicates the MSHR file / ListBuffer / directory, so >1 both
       multiplies control capacity and removes the shared-structure
       serialisation Fig. 9 saturates on. *)
    l2_banks = 1;
    l2_slices = 8;
    l2_slice_busy = 4;
    l2_tag_access = 8;
    dram_channels = 8;
    dram_read_latency = 60;
    dram_write_latency = 55;
    dram_occupancy = 2;
    fence_base_cost = 5;
    cas_extra = 4;
    nack_retry_delay = 4;
    skip_it = false;
    coalescing = false;
    wide_data_array = true;
    l2_trivial_skip = true;
    l3 = None;
    l1_replacement = `Lru;
    async_stores = true;
    stq_entries = 32;
    topology = `Crossbar;
  }

let with_cores t n = { t with n_cores = n }
let with_skip_it t b = { t with skip_it = b }
let with_l2_banks t n = { t with l2_banks = n }

let with_l3 t =
  {
    t with
    l3 =
      Some
        {
          l3_geom = Geometry.v ~size_bytes:(4 * 1024 * 1024) ~ways:16 ~line_bytes:64;
          l3_latency = 30;
          l3_banks = 8;
          l3_bank_busy = 4;
        };
  }

let line_bytes t = t.l1_geom.Geometry.line_bytes
let data_beats t = line_bytes t / t.bus_bytes

let fill_buffer_cycles t =
  if t.wide_data_array then t.l1_fill_buffer_wide else t.l1_fill_buffer_narrow

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.n_cores <= 0 then err "n_cores must be positive"
  else if t.l1_geom.Geometry.line_bytes <> t.l2_geom.Geometry.line_bytes then
    err "L1 and L2 line sizes differ"
  else if line_bytes t mod t.bus_bytes <> 0 then err "bus width must divide line size"
  else if t.l1_mshrs <= 0 || t.n_fshrs <= 0 then err "MSHR/FSHR counts must be positive"
  else if t.flush_queue_depth < 0 then err "flush queue depth must be non-negative"
  else if t.stq_entries <= 0 then err "STQ must have at least one entry"
  else if t.l2_mshrs <= 0 || t.l2_slices <= 0 || t.dram_channels <= 0 then
    err "L2/DRAM structure counts must be positive"
  else if not (is_pow2 t.l2_banks) then err "l2_banks must be a power of two"
  else if t.l2_banks > t.l2_geom.Geometry.sets then
    err "l2_banks must not exceed L2 set count"
  else
    match t.l3 with
    | Some l3 when l3.l3_geom.Geometry.line_bytes <> line_bytes t ->
      err "L3 line size must match L1/L2"
    | Some l3 when l3.l3_banks <= 0 -> err "L3 bank count must be positive"
    | Some _ | None -> Ok ()
