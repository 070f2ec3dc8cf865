module Params = Skipit_cache.Params
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module Model = Skipit_xarch.Model
module Sample = Skipit_sim.Stats.Sample
open Skipit_tilelink

let header ppf title =
  Format.fprintf ppf "@,== %s ==@," title

let table ?(x_name = "bytes") ppf series = Series.pp_table ~x_name ppf series

let repeats quick = if quick then 1 else 5
let sizes quick = if quick then [ 64; 512; 4096; 32768 ] else Micro.sizes_default
let platform params = Option.value params ~default:Params.boom_default

let wb_name = function Message.Wb_clean -> "clean" | Message.Wb_flush -> "flush"

let median_cycles params kernel ~threads ~size ~repeats =
  let sample = Sample.create () in
  for rep = 0 to repeats - 1 do
    Sample.add_int sample (Micro.run params kernel ~threads ~size ~rep)
  done;
  Sample.median sample

(* One row of a microbenchmark figure: the kernel's median over the
   repetitions at every size. *)
let sweep ~quick params kernel ~threads label =
  ( label,
    List.map
      (fun size ->
        ( float_of_int size,
          fun () -> median_cycles params kernel ~threads ~size ~repeats:(repeats quick) ))
      (sizes quick) )

(* Every figure below runs its grid with [Series.grid] (on [pool] when
   given; results come back in submission order, so the printed tables are
   byte-identical at any pool width), then prints. *)

let scalar_7_2 ?(quick = false) ?pool ?params ppf =
  header ppf "§7.2 scalars";
  let params = platform params in
  let reps = if quick then 3 else 50 in
  let single kind =
    ( wb_name kind,
      List.init reps (fun rep ->
        ( float_of_int rep,
          fun () ->
            float_of_int
              (Micro.run params (Micro.Writeback kind) ~threads:1 ~size:64 ~rep) )) )
  in
  let full_l1 =
    ( "full",
      [
        ( 32768.,
          fun () ->
            median_cycles params (Micro.Writeback Message.Wb_flush) ~threads:1 ~size:32768
              ~repeats:(repeats quick) );
      ] )
  in
  let stats s =
    let sample = Sample.create () in
    List.iter (fun p -> Sample.add sample p.Series.y) s.Series.points;
    Sample.median sample, Sample.stddev sample
  in
  (match
     Series.grid ?pool [ single Message.Wb_clean; single Message.Wb_flush; full_l1 ]
   with
   | [ clean; flush; { Series.points = [ full ]; _ } ] ->
     let med_c, sd_c = stats clean and med_f, sd_f = stats flush in
     Format.fprintf ppf "single-line CBO.CLEAN + fence: median %.0f cycles (sigma %.1f)@," med_c sd_c;
     Format.fprintf ppf "single-line CBO.FLUSH + fence: median %.0f cycles (sigma %.1f)@," med_f sd_f;
     Format.fprintf ppf "flush of full 32 KiB L1, 1 thread: %.0f cycles@," full.Series.y
   | _ -> assert false);
  Format.fprintf ppf "(paper: ~100 cycles sigma 13.2; ~7460 cycles)@,"

(* Powers of two up to the platform's core count (at least the paper's 8). *)
let thread_sweep params =
  let top =
    max 8 (match params with Some p -> p.Params.n_cores | None -> 1)
  in
  let rec up acc t = if t > top then List.rev acc else up (t :: acc) (t * 2) in
  up [] 1

let fig9 ?(quick = false) ?pool ?params ppf =
  let threads = thread_sweep params in
  header ppf
    (Printf.sprintf "Figure 9: CBO.X latency vs size, %s threads"
       (String.concat "/" (List.map string_of_int threads)));
  let params = platform params in
  Series.grid ?pool
    (List.map
       (fun threads ->
         sweep ~quick params (Micro.Writeback Message.Wb_flush) ~threads
           (Printf.sprintf "cbo.flush/%dT" threads))
       threads)
  |> table ppf

let fig10 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 10: write - writeback x10 - fence - read (latency, log-scale in paper)";
  let params = platform params in
  Series.grid ?pool
    (List.concat_map
       (fun threads ->
         List.map
           (fun kind ->
             sweep ~quick params (Micro.Write_wb_read kind) ~threads
               (Printf.sprintf "%s/%dT" (wb_name kind) threads))
           [ Message.Wb_clean; Message.Wb_flush ])
       [ 1; 8 ])
  |> table ppf

let comparative ~threads ~quick ?pool ?params ppf =
  let szs = sizes quick in
  let boom =
    Series.grid ?pool
      [
        sweep ~quick (platform params) (Micro.Writeback Message.Wb_flush) ~threads
          "boom-cbo.flush";
      ]
  in
  let models =
    List.map
      (fun instr ->
        Series.v (Model.name instr)
          (List.map
             (fun bytes -> float_of_int bytes, Model.latency instr ~threads ~bytes)
             szs))
      Model.flush_like
  in
  table ppf (boom @ models)

let fig11 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 11: cross-architecture writeback latency, 1 thread";
  comparative ~threads:1 ~quick ?pool ?params ppf

let fig12 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 12: cross-architecture writeback latency, 8 threads";
  comparative ~threads:8 ~quick ?pool ?params ppf

let fig13 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 13: naive vs Skip It, 10 redundant writebacks (CBO.CLEAN semantics)";
  let params = platform params in
  let series =
    Series.grid ?pool
      (List.concat_map
         (fun threads ->
           List.map
             (fun skip_it ->
               sweep ~quick (Params.with_skip_it params skip_it)
                 (Micro.Redundant (Message.Wb_clean, 10)) ~threads
                 (Printf.sprintf "%s/%dT" (if skip_it then "skip-it" else "naive") threads))
             [ false; true ])
         [ 1; 8 ])
  in
  table ppf series;
  (* Also report the speedup at the largest size. *)
  let speedup naive skip =
    match List.rev naive.Series.points, List.rev skip.Series.points with
    | pn :: _, ps :: _ -> (pn.Series.y -. ps.Series.y) /. pn.Series.y *. 100.
    | _ -> nan
  in
  (match series with
   | [ n1; s1; n8; s8 ] ->
     Format.fprintf ppf "speedup at 32KiB: 1T %.0f%%, 8T %.0f%% (paper: 15-30%%)@,"
       (speedup n1 s1) (speedup n8 s8)
   | _ -> ())

let ds_workload quick =
  if quick then
    { Ds_bench.default_workload with Ds_bench.key_range = 256; prefill = 128; window = 120_000 }
  else Ds_bench.default_workload

(* Linked lists are O(n) per operation, so the paper (like the literature it
   follows) keeps them an order of magnitude smaller than the other
   structures. *)
let workload_for kind w =
  match kind with
  | Ops.List_set -> { w with Ds_bench.key_range = 512; prefill = 256 }
  | Ops.Hash_set | Ops.Bst_set | Ops.Skiplist_set -> w

let fig14 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 14: throughput (ops/1000 cycles), 5% updates, 2 threads";
  let w0 = ds_workload quick in
  let kinds = if quick then [ Ops.List_set; Ops.Bst_set ] else Ops.all_kinds in
  (* One row per (structure, mode), one cell per strategy; the printing
     below walks the rows in the same order. *)
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun mode ->
            ( Pctx.mode_name mode,
              List.mapi
                (fun i spec ->
                  ( float_of_int i,
                    fun () -> Ds_bench.throughput ?params ~kind ~mode ~spec (workload_for kind w0) ))
                Ds_bench.default_specs ))
          Pctx.all_modes)
      kinds
  in
  let rest = ref (Series.grid ?pool rows) in
  List.iter
    (fun kind ->
      Format.fprintf ppf "@,-- %s --@," (Ops.kind_name kind);
      List.iter
        (fun _mode ->
          match !rest with
          | row :: tl ->
            rest := tl;
            Format.fprintf ppf "%-12s" row.Series.label;
            List.iter
              (fun p ->
                if Float.is_nan p.Series.y then Format.fprintf ppf "%18s" "n/a"
                else Format.fprintf ppf "%18.2f" p.Series.y)
              row.Series.points;
            Format.fprintf ppf "@,"
          | [] -> assert false)
        Pctx.all_modes;
      Format.fprintf ppf "%-12s" "(columns)";
      List.iter
        (fun spec -> Format.fprintf ppf "%18s" (Ds_bench.spec_name spec))
        Ds_bench.default_specs;
      Format.fprintf ppf "@,")
    kinds

let fig15 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 15: throughput vs update percentage (automatic persistence, 2 threads)";
  let w = ds_workload quick in
  let updates = if quick then [ 0; 50 ] else [ 0; 5; 20; 50; 100 ] in
  let kinds = if quick then [ Ops.List_set ] else Ops.all_kinds in
  List.iter
    (fun kind ->
      Format.fprintf ppf "@,-- %s --@," (Ops.kind_name kind);
      Series.grid ?pool
        (List.map
           (fun spec ->
             ( Ds_bench.spec_name spec,
               List.map
                 (fun pct ->
                   ( float_of_int pct,
                     fun () ->
                       Ds_bench.throughput ?params ~kind ~mode:Pctx.Automatic ~spec
                         { w with Ds_bench.update_pct = pct } ))
                 updates ))
           Ds_bench.default_specs)
      |> Series.pp_table ~x_name:"update%" ppf)
    kinds

let fig16 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 16: BST throughput vs FliT hash-table slots (automatic, 2 threads)";
  let w =
    let base = ds_workload quick in
    if quick then base
    else { base with Ds_bench.key_range = 10_000; prefill = 5_000; window = 600_000 }
  in
  let slots = if quick then [ 64; 4096 ] else [ 64; 256; 1024; 4096; 16384; 65536 ] in
  Series.grid ?pool
    [
      ( "flit-hash",
        List.map
          (fun n ->
            ( float_of_int n,
              fun () ->
                Ds_bench.throughput ?params ~kind:Ops.Bst_set ~mode:Pctx.Automatic
                  ~spec:(Ds_bench.Flit_hash n) w ))
          slots );
    ]
  |> Series.pp_table ~x_name:"slots" ppf

let all ?quick ?pool ?params ppf =
  scalar_7_2 ?quick ?pool ?params ppf;
  fig9 ?quick ?pool ?params ppf;
  fig10 ?quick ?pool ?params ppf;
  fig11 ?quick ?pool ?params ppf;
  fig12 ?quick ?pool ?params ppf;
  fig13 ?quick ?pool ?params ppf;
  fig14 ?quick ?pool ?params ppf;
  fig15 ?quick ?pool ?params ppf;
  fig16 ?quick ?pool ?params ppf

let registry =
  [
    "scalar", scalar_7_2;
    "fig9", fig9;
    "fig10", fig10;
    "fig11", fig11;
    "fig12", fig12;
    "fig13", fig13;
    "fig14", fig14;
    "fig15", fig15;
    "fig16", fig16;
    "all", all;
  ]

let by_name name = List.assoc_opt name registry
let names = List.map fst registry
