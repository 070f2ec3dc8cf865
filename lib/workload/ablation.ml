module Params = Skipit_cache.Params
module S = Skipit_core.System
module T = Skipit_core.Thread
module Pool = Skipit_par.Pool
open Skipit_tilelink

let line_bytes = 64

(* Store+flush [lines] lines, one fence; fresh single-core system. *)
let flush_region_cycles params ~lines =
  let sys = S.create (Params.with_cores params 1) in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line_bytes (lines * line_bytes) in
  T.run_task sys (fun () ->
    for i = 0 to lines - 1 do
      T.store (base + (i * line_bytes)) i
    done;
    T.fence ();
    let t0 = T.now () in
    for i = 0 to lines - 1 do
      T.flush (base + (i * line_bytes))
    done;
    T.fence ();
    T.now () - t0)

(* Each ablation is a grid of independent per-config simulations: build the
   config list, run one job per config (on [pool] when given), zip results
   back in order. *)

let fshr_count ?(counts = [ 1; 2; 4; 8; 16 ]) ?pool () =
  let ys =
    Pool.map pool
      (fun n ->
        let params = { Params.boom_default with Params.n_fshrs = n } in
        float_of_int (flush_region_cycles params ~lines:512))
      counts
  in
  Series.v "32KiB flush" (List.map2 (fun n y -> float_of_int n, y) counts ys)

let queue_depth ?(depths = [ 0; 1; 2; 4; 8; 16 ]) ?pool () =
  let ys =
    Pool.map pool
      (fun d ->
        let params = { Params.boom_default with Params.flush_queue_depth = d } in
        float_of_int (flush_region_cycles params ~lines:64))
      depths
  in
  Series.v "64-line store+flush burst" (List.map2 (fun d y -> float_of_int d, y) depths ys)

(* Fig. 13's redundant workload at one size under a given config. *)
let redundant_cycles params =
  let series =
    Micro.redundant ~params ~kind:Message.Wb_clean
      ~skip_it:params.Params.skip_it ~threads:1 ~redundant:10 ~sizes:[ 4096 ] ~repeats:3 ()
  in
  match series.Series.points with [ p ] -> p.Series.y | _ -> nan

let skip_decomposition ?pool () =
  let base = Params.boom_default in
  let configs =
    [
      ( "no-skip-at-all",
        { base with Params.skip_it = false; l2_trivial_skip = false; coalescing = false } );
      ( "l2-trivial-only",
        { base with Params.skip_it = false; l2_trivial_skip = true; coalescing = false } );
      ( "full-skip-it",
        { base with Params.skip_it = true; l2_trivial_skip = true; coalescing = false } );
    ]
  in
  let ys = Pool.map pool (fun (_, params) -> redundant_cycles params) configs in
  List.map2 (fun (label, _) y -> Series.v label [ 4096., y ]) configs ys

let data_array_width ?pool () =
  let widths = [ "wide-1cycle", true; "narrow-8cycle", false ] in
  let lines_list = [ 1; 64; 512 ] in
  let cells =
    List.concat_map (fun (_, wide) -> List.map (fun l -> wide, l) lines_list) widths
  in
  let ys =
    Pool.map pool
      (fun (wide, lines) ->
        let params = { Params.boom_default with Params.wide_data_array = wide } in
        float_of_int (flush_region_cycles params ~lines))
      cells
  in
  let tbl = List.combine cells ys in
  List.map
    (fun (label, wide) ->
      Series.v label
        (List.map
           (fun lines ->
             float_of_int (lines * line_bytes), List.assoc (wide, lines) tbl)
           lines_list))
    widths

(* The Fig. 13 naive workload with queue coalescing on vs off: when the
   FSHRs back up, queued same-line requests merge, so the flush queue
   itself filters most redundancy — which is why coalescing is off in the
   default calibration (see Params). *)
let coalescing ?pool () =
  let configs = [ "coalescing-on", true; "coalescing-off", false ] in
  let ys =
    Pool.map pool
      (fun (_, coalescing) ->
        redundant_cycles { Params.boom_default with Params.coalescing })
      configs
  in
  List.map2 (fun (label, _) y -> Series.v label [ 4096., y ]) configs ys

(* §7.4's closing hypothesis: a deeper hierarchy increases writeback
   latencies — measure how the Fig. 13 redundant-writeback workload and the
   single-line latency respond to a memory-side L3. *)
let hierarchy_depth ?pool () =
  let single params =
    let series =
      Micro.writeback_sweep ~params ~kind:Message.Wb_flush ~threads:1 ~sizes:[ 64 ]
        ~repeats:1 ()
    in
    match series.Series.points with [ p ] -> p.Series.y | _ -> nan
  in
  let jobs =
    [ "l2-only", Params.boom_default; "with-l3", Params.with_l3 Params.boom_default ]
    |> List.concat_map (fun (label, base) ->
         [
           (label ^ "/single-flush", 64., fun () -> single base);
           ( label ^ "/naive",
             4096.,
             fun () -> redundant_cycles { base with Params.skip_it = false } );
           ( label ^ "/skip-it",
             4096.,
             fun () -> redundant_cycles { base with Params.skip_it = true } );
         ])
  in
  let ys = Pool.map pool (fun (_, _, job) -> job ()) jobs in
  List.map2 (fun (label, x, _) y -> Series.v label [ x, y ]) jobs ys

(* Contended vs non-contended writebacks (Fig. 9 is non-contended): all
   threads flushing the same region exercise cross-core probes and the
   §5.4.1 interlocks. *)
let contention ?pool () =
  let preps =
    List.concat_map
      (fun threads ->
        [
          Micro.prep_writeback_sweep ~kind:Message.Wb_flush ~threads ~sizes:[ 4096 ]
            ~repeats:1 ();
          Micro.prep_contended_sweep ~kind:Message.Wb_flush ~threads ~sizes:[ 4096 ]
            ~repeats:1 ();
        ])
      [ 1; 2; 4; 8 ]
  in
  Micro.run_prepared ?pool preps
  |> List.mapi (fun i s ->
       (* Even slots are the disjoint sweeps: relabel them per thread count. *)
       if i mod 2 = 0 then
         { s with Series.label = Printf.sprintf "disjoint/%dT" (List.nth [ 1; 2; 4; 8 ] (i / 2)) }
       else s)

(* Access skew concentrates redundant writebacks on hot lines — the regime
   Skip It targets.  Hash-table throughput under automatic persistence,
   uniform vs Zipf(0.99) keys, Skip It vs plain. *)
let skew ?pool () =
  let base =
    { Ds_bench.default_workload with Ds_bench.key_range = 1024; prefill = 512; window = 250_000 }
  in
  let cells =
    [ "uniform", 0.; "zipf-0.99", 0.99 ]
    |> List.concat_map (fun (label, skew) ->
         [ label ^ "/plain", skew, Ds_bench.Plain; label ^ "/skip-it", skew, Ds_bench.Skipit ])
  in
  let ys =
    Pool.map pool
      (fun (_, skew, spec) ->
        Ds_bench.throughput ~kind:Skipit_pds.Set_ops.Hash_set
          ~mode:Skipit_persist.Pctx.Automatic ~spec
          { base with Ds_bench.skew })
      cells
  in
  List.map2 (fun (label, _, _) y -> Series.v label [ 1024., y ]) cells ys

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
