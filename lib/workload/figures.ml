module Params = Skipit_cache.Params
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module Model = Skipit_xarch.Model
module Pool = Skipit_par.Pool
open Skipit_tilelink

let header ppf title =
  Format.fprintf ppf "@,== %s ==@," title

let table ?(x_name = "bytes") ppf series = Series.pp_table ~x_name ppf series

let repeats quick = if quick then 1 else 5
let sizes quick = if quick then [ 64; 512; 4096; 32768 ] else Micro.sizes_default

(* Every figure below splits into two phases: produce the job grid and run
   it (on [pool] when given — results come back in submission order, so the
   printed tables are byte-identical at any pool width), then print. *)

let scalar_7_2 ?(quick = false) ?pool ?params ppf =
  header ppf "§7.2 scalars";
  let reps = if quick then 3 else 50 in
  let scalars =
    Micro.run_prepared ?pool
      [
        Micro.prep_single_line ?params ~kind:Message.Wb_clean ~repeats:reps ();
        Micro.prep_single_line ?params ~kind:Message.Wb_flush ~repeats:reps ();
      ]
  in
  (match scalars with
   | [ (med_c, sd_c); (med_f, sd_f) ] ->
     Format.fprintf ppf "single-line CBO.CLEAN + fence: median %.0f cycles (sigma %.1f)@," med_c sd_c;
     Format.fprintf ppf "single-line CBO.FLUSH + fence: median %.0f cycles (sigma %.1f)@," med_f sd_f
   | _ -> ());
  let full =
    match
      Micro.run_prepared ?pool
        [
          Micro.prep_writeback_sweep ?params ~kind:Message.Wb_flush ~threads:1
            ~sizes:[ 32 * 1024 ] ~repeats:(repeats quick) ();
        ]
    with
    | [ s ] -> s
    | _ -> assert false
  in
  (match full.Series.points with
   | [ p ] -> Format.fprintf ppf "flush of full 32 KiB L1, 1 thread: %.0f cycles@," p.Series.y
   | _ -> ());
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
  let series =
    Micro.run_prepared ?pool
      (List.map
         (fun threads ->
           Micro.prep_writeback_sweep ?params ~kind:Message.Wb_flush ~threads
             ~sizes:(sizes quick) ~repeats:(repeats quick) ())
         threads)
  in
  table ppf series

let fig10 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 10: write - writeback x10 - fence - read (latency, log-scale in paper)";
  let series =
    Micro.run_prepared ?pool
      (List.concat_map
         (fun threads ->
           [
             Micro.prep_write_wb_read ?params ~kind:Message.Wb_clean ~threads
               ~sizes:(sizes quick) ~repeats:(repeats quick) ();
             Micro.prep_write_wb_read ?params ~kind:Message.Wb_flush ~threads
               ~sizes:(sizes quick) ~repeats:(repeats quick) ();
           ])
         [ 1; 8 ])
  in
  table ppf series

let comparative ~threads ~quick ?pool ?params ppf =
  let szs = sizes quick in
  let boom =
    match
      Micro.run_prepared ?pool
        [
          Micro.prep_writeback_sweep ?params ~kind:Message.Wb_flush ~threads ~sizes:szs
            ~repeats:(repeats quick) ();
        ]
    with
    | [ s ] -> s
    | _ -> assert false
  in
  let boom = { boom with Series.label = "boom-cbo.flush" } in
  let models =
    List.map
      (fun instr ->
        Series.v (Model.name instr)
          (List.map
             (fun bytes -> float_of_int bytes, Model.latency instr ~threads ~bytes)
             szs))
      Model.flush_like
  in
  table ppf (boom :: models)

let fig11 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 11: cross-architecture writeback latency, 1 thread";
  comparative ~threads:1 ~quick ?pool ?params ppf

let fig12 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 12: cross-architecture writeback latency, 8 threads";
  comparative ~threads:8 ~quick ?pool ?params ppf

let fig13 ?(quick = false) ?pool ?params ppf =
  header ppf "Figure 13: naive vs Skip It, 10 redundant writebacks (CBO.CLEAN semantics)";
  let series =
    Micro.run_prepared ?pool
      (List.concat_map
         (fun threads ->
           List.map
             (fun skip_it ->
               Micro.prep_redundant ?params ~kind:Message.Wb_clean ~skip_it ~threads
                 ~redundant:10 ~sizes:(sizes quick) ~repeats:(repeats quick) ())
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
  ignore (params : Params.t option);
  header ppf "Figure 14: throughput (ops/1000 cycles), 5% updates, 2 threads";
  let w0 = ds_workload quick in
  let kinds = if quick then [ Ops.List_set; Ops.Bst_set ] else Ops.all_kinds in
  (* One trial per (structure, mode, strategy) cell, flattened to a job
     list; the printing below walks the cells in the same order. *)
  let cells =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun mode -> List.map (fun spec -> kind, mode, spec) Ds_bench.default_specs)
          Pctx.all_modes)
      kinds
  in
  let values =
    Pool.map pool
      (fun (kind, mode, spec) ->
        Ds_bench.throughput ~kind ~mode ~spec (workload_for kind w0))
      cells
  in
  let next = ref values in
  let pop () =
    match !next with
    | v :: tl ->
      next := tl;
      v
    | [] -> assert false
  in
  List.iter
    (fun kind ->
      Format.fprintf ppf "@,-- %s --@," (Ops.kind_name kind);
      List.iter
        (fun mode ->
          Format.fprintf ppf "%-12s" (Pctx.mode_name mode);
          List.iter
            (fun _spec ->
              let v = pop () in
              if Float.is_nan v then Format.fprintf ppf "%18s" "n/a"
              else Format.fprintf ppf "%18.2f" v)
            Ds_bench.default_specs;
          Format.fprintf ppf "@,")
        Pctx.all_modes;
      Format.fprintf ppf "%-12s" "(columns)";
      List.iter
        (fun spec -> Format.fprintf ppf "%18s" (Ds_bench.spec_name spec))
        Ds_bench.default_specs;
      Format.fprintf ppf "@,")
    kinds

let fig15 ?(quick = false) ?pool ?params ppf =
  ignore (params : Params.t option);
  header ppf "Figure 15: throughput vs update percentage (automatic persistence, 2 threads)";
  let w = ds_workload quick in
  let updates = if quick then [ 0; 50 ] else [ 0; 5; 20; 50; 100 ] in
  let kinds = if quick then [ Ops.List_set ] else Ops.all_kinds in
  List.iter
    (fun kind ->
      Format.fprintf ppf "@,-- %s --@," (Ops.kind_name kind);
      let series = Ds_bench.update_sweep ?pool ~kind ~mode:Pctx.Automatic ~updates w in
      Series.pp_table ~x_name:"update%" ppf series)
    kinds

let fig16 ?(quick = false) ?pool ?params ppf =
  ignore (params : Params.t option);
  header ppf "Figure 16: BST throughput vs FliT hash-table slots (automatic, 2 threads)";
  let w =
    let base = ds_workload quick in
    if quick then base
    else { base with Ds_bench.key_range = 10_000; prefill = 5_000; window = 600_000 }
  in
  let slots = if quick then [ 64; 4096 ] else [ 64; 256; 1024; 4096; 16384; 65536 ] in
  let series = Ds_bench.flit_table_sweep ?pool ~kind:Ops.Bst_set ~mode:Pctx.Automatic ~slots w in
  Series.pp_table ~x_name:"slots" ppf [ series ]

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
