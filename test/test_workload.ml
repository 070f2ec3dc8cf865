(* The figure drivers and the analytic commercial-CPU models: sanity of the
   shapes the paper reports. *)

module Micro = Skipit_workload.Micro
module Figures = Skipit_workload.Figures
module Params = Skipit_cache.Params
module Series = Skipit_workload.Series
module Ds_bench = Skipit_workload.Ds_bench
module Ablation = Skipit_workload.Ablation
module Model = Skipit_xarch.Model
module Zipf = Skipit_sim.Zipf
module Rng = Skipit_sim.Rng
open Skipit_tilelink

let ys series = List.map (fun p -> p.Series.y) series.Series.points

let flush_cycles ~threads size =
  Micro.run Params.boom_default (Micro.Writeback Message.Wb_flush) ~threads ~size ~rep:0

let test_single_line_near_100 () =
  let median =
    Figures.median_cycles Params.boom_default (Micro.Writeback Message.Wb_flush) ~threads:1
      ~size:64 ~repeats:5
  in
  Alcotest.(check bool) "§7.2: ~100 cycles" true (median > 60. && median < 160.)

let test_sweep_monotone () =
  match List.map (flush_cycles ~threads:1) [ 64; 1024; 32768 ] with
  | [ a; b; c ] -> Alcotest.(check bool) "monotone in size" true (a < b && b < c)
  | _ -> Alcotest.fail "expected 3 points"

let test_thread_scaling () =
  let at threads = flush_cycles ~threads 32768 in
  let t1 = at 1 and t8 = at 8 in
  let speedup = float_of_int t1 /. float_of_int t8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads speed up 5-8x (got %.1f)" speedup)
    true
    (speedup > 4.5 && speedup < 8.5)

let test_clean_vs_flush_reread () =
  let total kind =
    float_of_int (Micro.run Params.boom_default (Micro.Write_wb_read kind) ~threads:1 ~size:4096 ~rep:0)
  in
  let clean = total Message.Wb_clean and flush = total Message.Wb_flush in
  Alcotest.(check bool)
    (Printf.sprintf "flush reread costlier (%.0f vs %.0f)" flush clean)
    true
    (flush > clean *. 1.2)

let test_skip_it_beats_naive () =
  let run skip_it =
    float_of_int
      (Micro.run (Params.with_skip_it Params.boom_default skip_it)
         (Micro.Redundant (Message.Wb_clean, 10)) ~threads:1 ~size:4096 ~rep:0)
  in
  let naive = run false and skip = run true in
  let gain = (naive -. skip) /. naive in
  Alcotest.(check bool)
    (Printf.sprintf "Fig 13 band: 10-40%% (got %.0f%%)" (gain *. 100.))
    true
    (gain > 0.10 && gain < 0.45)

let test_ds_bench_sanity () =
  let w =
    { Ds_bench.default_workload with Ds_bench.key_range = 128; prefill = 64; window = 60_000 }
  in
  let tput spec = Ds_bench.throughput ~kind:Skipit_pds.Set_ops.Hash_set ~mode:Skipit_persist.Pctx.Automatic ~spec w in
  let baseline = tput Ds_bench.Baseline in
  let plain = tput Ds_bench.Plain in
  let skipit = tput Ds_bench.Skipit in
  Alcotest.(check bool) "baseline fastest" true (baseline > plain && baseline > skipit);
  Alcotest.(check bool) "skip-it beats plain under automatic" true (skipit > plain);
  Alcotest.(check bool) "lap x bst = n/a" true
    (Float.is_nan
       (Ds_bench.throughput ~kind:Skipit_pds.Set_ops.Bst_set
          ~mode:Skipit_persist.Pctx.Automatic ~spec:Ds_bench.Link_and_persist w))

let test_xarch_shapes () =
  (* Intel clflush must blow up at large sizes relative to clflushopt. *)
  let clflush = Model.latency Model.Intel_clflush ~threads:1 ~bytes:32768 in
  let opt = Model.latency Model.Intel_clflushopt ~threads:1 ~bytes:32768 in
  Alcotest.(check bool) "clflush serializes" true (clflush > 4. *. opt);
  (* AMD's two instructions behave alike (§7.3). *)
  let amd_f = Model.latency Model.Amd_clflush ~threads:1 ~bytes:32768 in
  let amd_o = Model.latency Model.Amd_clflushopt ~threads:1 ~bytes:32768 in
  Alcotest.(check bool) "amd variants close" true (Float.abs (amd_f -. amd_o) /. amd_o < 0.1);
  (* Graviton grows sub-linearly: overtakes the x86 weak flushes at 32 KiB. *)
  let grav = Model.latency Model.Graviton_civac ~threads:1 ~bytes:32768 in
  Alcotest.(check bool) "graviton sublinear wins large" true (grav < opt);
  let opt_small = Model.latency Model.Intel_clflushopt ~threads:1 ~bytes:64 in
  let grav_small = Model.latency Model.Graviton_civac ~threads:1 ~bytes:64 in
  Alcotest.(check bool) "but similar at small sizes" true
    (grav_small > 0.5 *. opt_small && grav_small < 2. *. opt_small);
  (* More threads never hurt a fixed total size. *)
  List.iter
    (fun instr ->
      let one = Model.latency instr ~threads:1 ~bytes:32768 in
      let eight = Model.latency instr ~threads:8 ~bytes:32768 in
      Alcotest.(check bool) (Model.name instr ^ " scales") true (eight < one))
    Model.all

let test_ablation_fshr_scaling () =
  let s = Ablation.fshr_count ~counts:[ 1; 8 ] () in
  match ys s with
  | [ one; eight ] ->
    Alcotest.(check bool) "8 FSHRs ~8x the MLP" true (one /. eight > 6.)
  | _ -> Alcotest.fail "expected 2 points"

let test_ablation_queue_depth () =
  let s = Ablation.queue_depth ~depths:[ 0; 8 ] () in
  match ys s with
  | [ sync; buffered ] ->
    Alcotest.(check bool) "buffering pays" true (sync > 2. *. buffered)
  | _ -> Alcotest.fail "expected 2 points"

let test_figures_registry () =
  Alcotest.(check int) "ten entries" 10 (List.length Skipit_workload.Figures.names);
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Skipit_workload.Figures.by_name name <> None))
    Skipit_workload.Figures.names;
  Alcotest.(check bool) "unknown name" true (Skipit_workload.Figures.by_name "fig99" = None)

let test_series_map_y () =
  let s = Series.v "a" [ 1., 10.; 2., 20. ] in
  let doubled = Series.map_y (fun y -> y *. 2.) s in
  Alcotest.(check (list (float 1e-9))) "doubled" [ 20.; 40. ] (ys doubled)

let test_series_rendering () =
  let s = Series.v "a" [ 1., 10.; 2., 20. ] in
  let txt = Format.asprintf "@[<v>%a@]" (Series.pp_table ~x_name:"x" ~y_name:"") [ s ] in
  Alcotest.(check bool) "has header" true (String.length txt > 0);
  let csv = Format.asprintf "@[<v>%a@]" Series.pp_csv [ s ] in
  Alcotest.(check bool) "csv rows" true (String.split_on_char '\n' csv |> List.length >= 3);
  Alcotest.(check string) "bytes label KiB" "4KiB" (Series.bytes_label 4096);
  Alcotest.(check string) "bytes label B" "64B" (Series.bytes_label 64)

let test_distribution () =
  let rng = Rng.create ~seed:3 in
  let cdf = Zipf.cdf ~n:100 ~theta_milli:990 in
  let counts = Array.make 100 0 in
  for _ = 1 to 2000 do
    let v = Zipf.draw cdf rng in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "zipf skews to head" true (counts.(0) > counts.(50) * 3);
  Alcotest.(check (array int)) "theta 0 weighs every rank alike"
    (Array.init 10 (fun k -> (k + 1) lsl 30))
    (Zipf.cdf ~n:10 ~theta_milli:0)

let tests =
  ( "workload",
    [
      Alcotest.test_case "§7.2 single line ~100cy" `Quick test_single_line_near_100;
      Alcotest.test_case "sweep monotone" `Quick test_sweep_monotone;
      Alcotest.test_case "8-thread scaling (Fig 9)" `Slow test_thread_scaling;
      Alcotest.test_case "clean vs flush reread (Fig 10)" `Quick test_clean_vs_flush_reread;
      Alcotest.test_case "skip-it beats naive (Fig 13)" `Quick test_skip_it_beats_naive;
      Alcotest.test_case "ds bench ordering (Fig 14)" `Slow test_ds_bench_sanity;
      Alcotest.test_case "xarch model shapes (Figs 11/12)" `Quick test_xarch_shapes;
      Alcotest.test_case "ablation: FSHR MLP" `Quick test_ablation_fshr_scaling;
      Alcotest.test_case "ablation: queue depth" `Quick test_ablation_queue_depth;
      Alcotest.test_case "figures registry" `Quick test_figures_registry;
      Alcotest.test_case "series map_y" `Quick test_series_map_y;
      Alcotest.test_case "series rendering" `Quick test_series_rendering;
      Alcotest.test_case "distributions" `Quick test_distribution;
    ] )
