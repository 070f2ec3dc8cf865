(* Golden regression for the port-layer refactor: the example traces must
   produce exactly the cycle counts, checksums and counter values the
   pre-port tree produced.  The crossbar topology (the default) gives every
   port private channel wires acquired in the same order as the old direct
   wiring, so any drift here means the refactor changed latency shapes. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module T = Skipit_core.Thread
module TP = Skipit_workload.Trace_program

let trace = Example_trace.path

let run_trace ?(topology = `Crossbar) ~skip_it name =
  match TP.load_file (trace name) with
  | Error e -> Alcotest.failf "trace %s: %s" name e
  | Ok program ->
    let cores = TP.max_core program + 1 in
    let sys = S.create (C.platform ~cores ~skip_it ~topology ()) in
    let cycles, checksums = TP.run sys program in
    sys, cycles, checksums

let stat sys name =
  match List.assoc_opt name (S.stats_report sys) with
  | Some v -> v
  | None -> Alcotest.failf "counter %s missing from stats_report" name

let check_stats sys expected =
  List.iter
    (fun (name, v) -> Alcotest.(check int) name v (stat sys name))
    expected

(* Cycle counts are identical with Skip It on and off for these traces (no
   redundant same-line flush is close enough to pay the skip latency back);
   what matters here is that both configurations reproduce the seed. *)
let test_cycles_golden () =
  List.iter
    (fun (name, golden) ->
      List.iter
        (fun skip_it ->
          let _, cycles, _ = run_trace ~skip_it name in
          Alcotest.(check int)
            (Printf.sprintf "%s skip_it=%b" name skip_it)
            golden cycles)
        [ false; true ])
    [ "producer_consumer", 915; "redundant_flush", 1120; "fig5_semantics", 127 ]

(* One trace instruction through the thread operations. *)
let exec = function
  | Skipit_cpu.Instr.Load { addr } -> ignore (T.load addr)
  | Store { addr; value } -> T.store addr value
  | Cas { addr; expected; desired } -> ignore (T.cas addr ~expected ~desired)
  | Cbo_clean { addr } -> T.clean addr
  | Cbo_flush { addr } -> T.flush addr
  | Cbo_inval { addr } -> T.inval addr
  | Cbo_zero { addr } -> T.zero addr
  | Fence -> T.fence ()
  | Delay n -> T.delay n

(* The periodic invariant auditor is observation-only: ticked from the
   stop predicate of a run over the trace's per-core streams, and once at
   completion, at a cadence that observes many times per trace, the cycle
   counts must stay bit-identical to the unaudited runs — and it must
   find nothing. *)
let test_cycles_golden_with_auditor () =
  List.iter
    (fun (name, golden) ->
      List.iter
        (fun skip_it ->
          match TP.load_file (trace name) with
          | Error e -> Alcotest.failf "trace %s: %s" name e
          | Ok program ->
            let cores = TP.max_core program + 1 in
            let sys = S.create (C.platform ~cores ~skip_it ~topology:`Crossbar ()) in
            let auditor = Skipit_audit.Auditor.create sys in
            Skipit_audit.Auditor.attach auditor ~every:25;
            let tasks =
              List.map
                (fun (core, instrs) -> { T.core; body = (fun () -> List.iter exec instrs) })
                program
            in
            let stop () =
              Skipit_audit.Auditor.tick auditor;
              false
            in
            let cycles =
              match T.run_until sys ~stop tasks with
              | `Completed c -> c
              | `Stopped _ -> Alcotest.fail "a stop that never fires stopped the run"
            in
            Skipit_audit.Auditor.tick auditor;
            Alcotest.(check int)
              (Printf.sprintf "%s skip_it=%b audited" name skip_it)
              golden cycles;
            match Skipit_audit.Auditor.failures auditor with
            | [] -> ()
            | v :: _ ->
              Alcotest.failf "%s: auditor reported %s" name
                (Skipit_audit.Invariant.violation_to_string v))
        [ false; true ])
    [ "producer_consumer", 915; "redundant_flush", 1120; "fig5_semantics", 127 ]

let test_checksums_golden () =
  let _, _, checksums = run_trace ~skip_it:false "producer_consumer" in
  Alcotest.(check (array int)) "producer_consumer checksums" [| 0; 0xd |] checksums

let test_producer_consumer_stats () =
  let sys, _, _ = run_trace ~skip_it:false "producer_consumer" in
  check_stats sys
    [
      "l2.hits", 5;
      "l2.misses", 5;
      "l2.probes", 5;
      "l2.grants_clean", 10;
      "l2.root_releases", 5;
      "dram.reads", 5;
      "dram.writes", 5;
    ]

let test_redundant_flush_stats () =
  let sys, _, _ = run_trace ~skip_it:true "redundant_flush" in
  check_stats sys
    [
      "fu.0.skip_dropped", 80;
      "l2.misses", 8;
      "l2.grants_clean", 8;
      "l2.root_releases", 8;
      "l2.root_invals", 8;
      "dram.reads", 8;
      "dram.writes", 8;
    ]

let test_fig5_stats () =
  let sys, _, _ = run_trace ~skip_it:false "fig5_semantics" in
  check_stats sys
    [
      "l2.misses", 3;
      "l2.root_releases", 2;
      "dram.reads", 3;
      "dram.writes", 2;
    ]

let test_port_counters_present () =
  let sys, _, _ = run_trace ~skip_it:false "producer_consumer" in
  (* Every boundary reports under the "port." prefix: both L1 client ports
     and the L2's memory-side port. *)
  Alcotest.(check int) "core 0 acquires" 5 (stat sys "port.l1.0.acquires");
  Alcotest.(check int) "core 0 A beats" 5 (stat sys "port.l1.0.a_beats");
  Alcotest.(check int) "core 0 probed" 5 (stat sys "port.l1.0.b_probes");
  Alcotest.(check int) "core 1 grants = 5 acquires x 4 beats" 20
    (stat sys "port.l1.1.d_beats");
  Alcotest.(check int) "memside reads" 5 (stat sys "port.l2.mem.reads");
  Alcotest.(check int) "memside persists" 5 (stat sys "port.l2.mem.persists")

let test_shared_bus_coherent () =
  (* The bus serializes channel wires across cores; results must stay
     architecturally identical even if timing differs. *)
  List.iter
    (fun name ->
      let crossbar, _, sum_x = run_trace ~skip_it:true name in
      let bus, _, sum_b = run_trace ~topology:`Shared_bus ~skip_it:true name in
      Alcotest.(check (array int))
        (name ^ ": checksums independent of topology") sum_x sum_b;
      Structural.check bus;
      Structural.check crossbar)
    [ "producer_consumer"; "redundant_flush"; "fig5_semantics" ]

let tests =
  ( "golden-stats",
    [
      Alcotest.test_case "trace cycles unchanged from seed" `Quick test_cycles_golden;
      Alcotest.test_case "cycles identical with auditor attached" `Quick
        test_cycles_golden_with_auditor;
      Alcotest.test_case "checksums unchanged" `Quick test_checksums_golden;
      Alcotest.test_case "producer_consumer counters" `Quick test_producer_consumer_stats;
      Alcotest.test_case "redundant_flush counters" `Quick test_redundant_flush_stats;
      Alcotest.test_case "fig5 counters" `Quick test_fig5_stats;
      Alcotest.test_case "port counters present" `Quick test_port_counters_present;
      Alcotest.test_case "shared bus stays coherent" `Quick test_shared_bus_coherent;
    ] )
