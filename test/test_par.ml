(* The parallel experiment engine: pool mechanics, domain isolation of the
   trace sink, and the determinism contract — experiment output at any pool
   width is byte-identical to the sequential run. *)

module Pool = Skipit_par.Pool
module Figures = Skipit_workload.Figures
module Ablation = Skipit_workload.Ablation
module Micro = Skipit_workload.Micro
module Series = Skipit_workload.Series
module Trace = Skipit_obs.Trace
module S = Skipit_core.System
module C = Skipit_core.Config
module TP = Skipit_workload.Trace_program

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_open_vbox ppf 0;
  f ppf;
  Format.pp_close_box ppf ();
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* == Pool mechanics ===================================================== *)

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
    let xs = List.init 100 Fun.id in
    Alcotest.(check (list int))
      "results in submission order"
      (List.map (fun x -> x * x) xs)
      (Pool.map (Some pool) (fun x -> x * x) xs))

let test_map_empty_and_width_1 () =
  Pool.with_pool ~jobs:3 (fun pool ->
    Alcotest.(check (list int)) "empty" [] (Pool.map (Some pool) Fun.id []));
  Pool.with_pool ~jobs:1 (fun pool ->
    Alcotest.(check (list int)) "width 1 runs inline" [ 1; 2 ]
      (Pool.map (Some pool) Fun.id [ 1; 2 ]));
  Alcotest.(check (list int)) "no pool runs inline" [ 1; 2 ] (Pool.map None Fun.id [ 1; 2 ])

exception Boom of int

let test_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun pool ->
    Alcotest.check_raises "job exception re-raised" (Boom 3) (fun () ->
      ignore (Pool.map (Some pool) (fun x -> if x = 3 then raise (Boom 3) else x) [ 1; 2; 3; 4 ])))

let test_first_failure_by_submission_order () =
  (* Jobs 1 and 3 both raise, and job 3 raises first in wall time: job 1
     waits until job 3 has failed on the other domain.  The caller still
     sees job 1's exception. *)
  let job3_failed = Atomic.make false in
  let job x =
    match x with
    | 1 ->
      let deadline = Sys.time () +. 10. in
      while (not (Atomic.get job3_failed)) && Sys.time () < deadline do
        Domain.cpu_relax ()
      done;
      if not (Atomic.get job3_failed) then failwith "job 3 never ran";
      raise (Boom 1)
    | 3 ->
      Atomic.set job3_failed true;
      raise (Boom 3)
    | x -> x
  in
  Pool.with_pool ~jobs:2 (fun pool ->
    Alcotest.check_raises "lowest failing index wins" (Boom 1) (fun () ->
      ignore (Pool.map (Some pool) job [ 1; 2; 3; 4 ])));
  Alcotest.(check bool) "job 3 failed first" true (Atomic.get job3_failed)

let test_nested_map_runs_inline () =
  (* A job that maps on its own pool must not publish over the batch it
     belongs to, on a helper or on the calling domain. *)
  Pool.with_pool ~jobs:2 (fun pool ->
    let r =
      Pool.map (Some pool)
        (fun x -> List.fold_left ( + ) 0 (Pool.map (Some pool) (fun y -> x * y) [ 1; 2; 3 ]))
        [ 1; 2 ]
    in
    Alcotest.(check (list int)) "nested map" [ 6; 12 ] r)

let test_pool_reuse () =
  (* The same pool serves several batches (the CLI reuses one pool across
     every figure of a run). *)
  Pool.with_pool ~jobs:2 (fun pool ->
    for i = 1 to 5 do
      Alcotest.(check (list int))
        (Printf.sprintf "batch %d" i)
        (List.init 10 (fun x -> x + i))
        (Pool.map (Some pool) (fun x -> x + i) (List.init 10 Fun.id))
    done)

(* == Domain isolation of the trace sink ================================= *)

let test_trace_sink_is_domain_local () =
  (* Jobs tracing on pool domains never touch the caller's sink. *)
  Alcotest.(check bool) "main sink off" false (Trace.enabled ());
  Pool.with_pool ~jobs:2 (fun pool ->
    let lengths =
      Pool.map (Some pool)
        (fun i ->
          let (), tr =
            Trace.with_trace (fun () ->
              for at = 0 to i do
                Trace.emit ~at (Trace.Meta { track = "t"; note = "n" })
              done)
          in
          Trace.length tr)
        [ 4; 9 ]
    in
    Alcotest.(check (list int)) "each job saw only its own events" [ 5; 10 ] lengths);
  Alcotest.(check bool) "main sink still off" false (Trace.enabled ())

let test_sink_count_keeps_domains_apart () =
  (* A sink installed on another domain lifts the global install count but
     must still read as absent here; stopping it brings the count back. *)
  let installed = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
      ignore (Trace.start ());
      Atomic.set installed true;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done;
      let on = Trace.enabled () in
      ignore (Trace.stop ());
      on)
  in
  while not (Atomic.get installed) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "other domain's sink is not ours" false (Trace.enabled ());
  Trace.emit ~at:0 (Trace.Meta { track = "t"; note = "n" });
  Atomic.set release true;
  Alcotest.(check bool) "other domain saw its own sink" true (Domain.join d);
  let tr = Trace.start () in
  Alcotest.(check bool) "own sink on" true (Trace.enabled ());
  Alcotest.(check int) "nothing leaked into it" 0 (Trace.length tr);
  ignore (Trace.stop ());
  Alcotest.(check bool) "own sink off" false (Trace.enabled ())

(* == Determinism of the experiment drivers ============================== *)

let figure_output name ~jobs =
  match Figures.by_name name with
  | None -> Alcotest.failf "unknown figure %s" name
  | Some f -> Pool.with_pool ~jobs (fun pool -> render (fun ppf -> f ~quick:true ~pool ppf))

let test_figures_deterministic () =
  (* The reduction reassembles results in submission order whichever
     domain ran which job. *)
  List.iter
    (fun name ->
      let seq = figure_output name ~jobs:1 in
      Alcotest.(check bool) (name ^ " non-empty") true (String.length seq > 0);
      List.iter
        (fun jobs ->
          let par = figure_output name ~jobs in
          Alcotest.(check bool)
            (Printf.sprintf "%s --jobs 1 vs --jobs %d byte-identical" name jobs)
            true
            (String.equal seq par))
        [ 2; 8 ])
    [ "scalar"; "fig9"; "fig13"; "fig15" ]

let test_ablation_deterministic () =
  let section pool = render (fun ppf ->
    Series.pp_table ~x_name:"bytes" ppf (Ablation.skip_decomposition ?pool ()))
  in
  let seq = section None in
  let par = Pool.with_pool ~jobs:4 (fun pool -> section (Some pool)) in
  Alcotest.(check bool) "skip decomposition identical under pool" true (String.equal seq par)

let test_prepared_split () =
  (* run_prepared must route each experiment's slice of the flat result
     list back to its own reducer. *)
  let prep label xs = { Micro.jobs = List.map (fun x () -> x) xs; reduce = (fun ys -> label, ys) } in
  let r =
    Pool.with_pool ~jobs:3 (fun pool ->
      Micro.run_prepared ~pool [ prep "a" [ 1.; 2. ]; prep "b" [ 3. ]; prep "c" [] ])
  in
  Alcotest.(check (list (pair string (list (float 0.)))))
    "slices" [ "a", [ 1.; 2. ]; "b", [ 3. ]; "c", [] ] r

(* == Golden cycle counts re-pinned under the pool ======================= *)

let test_golden_cycles_under_pool () =
  let run name =
    match TP.load_file (Example_trace.path name) with
    | Error e -> Alcotest.failf "trace %s: %s" name e
    | Ok program ->
      let cores = TP.max_core program + 1 in
      let sys = S.create (C.platform ~cores ~skip_it:false ()) in
      let cycles, _ = TP.run sys program in
      cycles
  in
  let cycles =
    Pool.with_pool ~jobs:3 (fun pool ->
      Pool.map (Some pool) run [ "producer_consumer"; "redundant_flush"; "fig5_semantics" ])
  in
  Alcotest.(check (list int)) "golden cycles 915/1120/127 under the pool"
    [ 915; 1120; 127 ] cycles

let tests =
  ( "par",
    [
      Alcotest.test_case "map preserves submission order" `Quick test_map_order;
      Alcotest.test_case "empty input and width 1" `Quick test_map_empty_and_width_1;
      Alcotest.test_case "job exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "first failure by submission order" `Quick
        test_first_failure_by_submission_order;
      Alcotest.test_case "nested map runs inline" `Quick test_nested_map_runs_inline;
      Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
      Alcotest.test_case "trace sink is domain-local" `Quick test_trace_sink_is_domain_local;
      Alcotest.test_case "sink count keeps domains apart" `Quick
        test_sink_count_keeps_domains_apart;
      Alcotest.test_case "figures byte-identical at any width" `Slow test_figures_deterministic;
      Alcotest.test_case "ablation byte-identical under pool" `Slow test_ablation_deterministic;
      Alcotest.test_case "run_prepared slices results" `Quick test_prepared_split;
      Alcotest.test_case "golden cycles under the pool" `Quick test_golden_cycles_under_pool;
    ] )
