module Params = Skipit_cache.Params
open Skipit_tilelink

let line_bytes = 64

(* Fig. 9's window at one size on one core: store [lines] lines and
   fence, then the cycles to flush them all and fence again. *)
let flush_region_cycles params ~lines =
  float_of_int
    (Micro.run params (Micro.Writeback Message.Wb_flush) ~threads:1 ~size:(lines * line_bytes)
       ~rep:0)

(* Fig. 13's redundant workload at one size under a given config. *)
let redundant_cycles params =
  Figures.median_cycles params (Micro.Redundant (Message.Wb_clean, 10)) ~threads:1 ~size:4096
    ~repeats:3

(* Each ablation is a grid of independent per-config simulations, run by
   [Series.grid] (on [pool] when given). *)

(* A one-row grid: one series over [xs]. *)
let sweep ?pool label xs cell =
  match Series.grid ?pool [ label, List.map (fun x -> float_of_int x, fun () -> cell x) xs ] with
  | [ s ] -> s
  | _ -> assert false

(* One single-point row per config. *)
let points ?pool x configs =
  Series.grid ?pool (List.map (fun (label, cell) -> label, [ x, cell ]) configs)

let fshr_count ?(counts = [ 1; 2; 4; 8; 16 ]) ?pool () =
  sweep ?pool "32KiB flush" counts (fun n ->
    flush_region_cycles { Params.boom_default with Params.n_fshrs = n } ~lines:512)

let queue_depth ?(depths = [ 0; 1; 2; 4; 8; 16 ]) ?pool () =
  sweep ?pool "64-line store+flush burst" depths (fun d ->
    flush_region_cycles { Params.boom_default with Params.flush_queue_depth = d } ~lines:64)

let skip_decomposition ?pool () =
  let base = Params.boom_default in
  points ?pool 4096.
    (List.map
       (fun (label, skip_it, l2_trivial_skip) ->
         ( label,
           fun () ->
             redundant_cycles { base with Params.skip_it; l2_trivial_skip; coalescing = false } ))
       [
         "no-skip-at-all", false, false;
         "l2-trivial-only", false, true;
         "full-skip-it", true, true;
       ])

(* Flush sweep with the widened vs narrow L1 data array. *)
let data_array_width ?pool () =
  Series.grid ?pool
    (List.map
       (fun (label, wide_data_array) ->
         let params = { Params.boom_default with Params.wide_data_array } in
         ( label,
           List.map
             (fun lines ->
               float_of_int (lines * line_bytes), fun () -> flush_region_cycles params ~lines)
             [ 1; 64; 512 ] ))
       [ "wide-1cycle", true; "narrow-8cycle", false ])

(* The Fig. 13 naive workload with queue coalescing on vs off: when the
   FSHRs back up, queued same-line requests merge, so the flush queue
   itself filters most redundancy — which is why coalescing is off in the
   default calibration (see Params). *)
let coalescing ?pool () =
  points ?pool 4096.
    (List.map
       (fun (label, coalescing) ->
         label, fun () -> redundant_cycles { Params.boom_default with Params.coalescing })
       [ "coalescing-on", true; "coalescing-off", false ])

(* §7.4's closing hypothesis: a deeper hierarchy increases writeback
   latencies — measure how the Fig. 13 redundant-writeback workload and the
   single-line latency respond to a memory-side L3. *)
let hierarchy_depth ?pool () =
  Series.grid ?pool
    ([ "l2-only", Params.boom_default; "with-l3", Params.with_l3 Params.boom_default ]
    |> List.concat_map (fun (label, base) ->
         [
           (label ^ "/single-flush", [ 64., fun () -> flush_region_cycles base ~lines:1 ]);
           ( label ^ "/naive",
             [ 4096., fun () -> redundant_cycles { base with Params.skip_it = false } ] );
           ( label ^ "/skip-it",
             [ 4096., fun () -> redundant_cycles { base with Params.skip_it = true } ] );
         ]))

(* Contended vs non-contended writebacks (Fig. 9 is non-contended): all
   threads flushing the same region exercise cross-core probes and the
   §5.4.1 interlocks. *)
let contention ?pool () =
  let cell kernel threads () =
    float_of_int (Micro.run Params.boom_default kernel ~threads ~size:4096 ~rep:0)
  in
  points ?pool 4096.
    (List.concat_map
       (fun threads ->
         [
           ( Printf.sprintf "disjoint/%dT" threads,
             cell (Micro.Writeback Message.Wb_flush) threads );
           ( Printf.sprintf "contended/%dT" threads,
             cell (Micro.Contended Message.Wb_flush) threads );
         ])
       [ 1; 2; 4; 8 ])

(* Access skew concentrates redundant writebacks on hot lines — the regime
   Skip It targets.  Hash-table throughput under automatic persistence,
   uniform vs Zipf(0.99) keys, Skip It vs plain. *)
let skew ?pool () =
  let base =
    { Ds_bench.default_workload with Ds_bench.key_range = 1024; prefill = 512; window = 250_000 }
  in
  points ?pool 1024.
    ([ "uniform", 0; "zipf-0.99", 990 ]
    |> List.concat_map (fun (label, skew_milli) ->
         List.map
           (fun (name, spec) ->
             ( label ^ "/" ^ name,
               fun () ->
                 Ds_bench.throughput ~kind:Skipit_pds.Set_ops.Hash_set
                   ~mode:Skipit_persist.Pctx.Automatic ~spec { base with Ds_bench.skew_milli } ))
           [ "plain", Ds_bench.Plain; "skip-it", Ds_bench.Skipit ]))

let run_all ?pool ppf =
  let section title series ~x_name =
    Format.fprintf ppf "@,== Ablation: %s ==@," title;
    Series.pp_table ~x_name ppf series
  in
  section "FSHR count (writeback MLP)" [ fshr_count ?pool () ] ~x_name:"fshrs";
  section "flush queue depth (early commit)" [ queue_depth ?pool () ] ~x_name:"depth";
  section "redundant-writeback skip decomposition" (skip_decomposition ?pool ())
    ~x_name:"bytes";
  section "L1 data-array width (fill_buffer)" (data_array_width ?pool ()) ~x_name:"bytes";
  section "flush-queue coalescing on the redundant-writeback workload" (coalescing ?pool ())
    ~x_name:"bytes";
  section "hierarchy depth (memory-side L3, §7.4 hypothesis)" (hierarchy_depth ?pool ())
    ~x_name:"bytes";
  section "contended vs disjoint writebacks (4 KiB)" (contention ?pool ()) ~x_name:"bytes";
  section "key skew (hash table, automatic persistence, ops/kcycle)" (skew ?pool ())
    ~x_name:"keys"
