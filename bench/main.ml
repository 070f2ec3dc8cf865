(* Simulated-results pin writer.

   Usage: main.exe [OUT]        (default: BENCH_results.json)

   Runs the 19-workload set once, serially, and writes each workload's
   simulated results to OUT: elapsed cycles, checksums, per-class latency
   percentiles, per-stage cycle attribution and the stats counters.
   Nothing host-dependent is recorded, so the file is a pure function of
   the source tree.  `dune runtest` regenerates it and runs
   tools/bench_gate.exe, which compares every field with the committed
   BENCH_results.json and evaluates the rules in bench/gates.  Host cost
   (wall time, allocation) is perfbench/'s job; the figures themselves are
   `skipit_sim figure all` and `skipit_sim ablate`. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module Trace = Skipit_obs.Trace
module Latency = Skipit_obs.Latency
module Trace_program = Skipit_workload.Trace_program
module Micro = Skipit_workload.Micro
module Series = Skipit_workload.Series
module Message = Skipit_tilelink.Message
module Engine = Skipit_serve.Engine
module Workload = Skipit_serve.Workload
module Fleet = Skipit_fleet.Fleet

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

(* A workload result: elapsed cycles, per-class latency percentiles,
   per-stage attribution (serve rows only) and named counters. *)
type result = {
  name : string;
  cycles : int;
  checksums : int array;
  latency : (string * Latency.summary) list;
  attribution : (string * int) list;
  stats : (string * int) list;
}

(* Run [f] with tracing on and distill the per-class latency summaries
   (plus "overall") from the recorded request spans.  Tracing never changes
   simulated timing, so the cycle counts are those of an untraced run.
   The reqs-only sink records only [Req_start]/[Req_end] spans, so the
   summaries equal full tracing's as long as the 2^20-slot ring never
   wraps; a run that dropped a span fails instead of pinning a partial
   histogram. *)
let with_latency name f =
  let tr = Trace.start ~capacity:(1 lsl 20) ~reqs_only:true () in
  let r = Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) f in
  if Trace.dropped tr > 0 then
    fail "%s: trace ring dropped %d span(s); latency would be partial" name
      (Trace.dropped tr);
  let lat = Latency.of_trace tr in
  let overall =
    match Latency.summarize (Latency.overall lat) with
    | Some s -> [ "overall", s ]
    | None -> []
  in
  r, overall @ Latency.summaries lat

(* The repo's trace programs, found from the repo root or from a dune
   build directory.  A missing or unparsable trace is an error, never a
   shorter file. *)
let trace_path file =
  match
    List.find_opt Sys.file_exists
      [ "examples/traces/" ^ file; "../examples/traces/" ^ file ]
  with
  | Some path -> path
  | None -> fail "examples/traces/%s not found (run from the repository root)" file

let suffix skip_it = if skip_it then "+skipit" else ""

let run_trace_workload trace ~skip_it =
  let path = trace_path (trace ^ ".trace") in
  let program =
    match Trace_program.load_file path with
    | Ok p -> p
    | Error e -> fail "%s: %s" path e
  in
  let name = trace ^ suffix skip_it in
  let sys = S.create (C.platform ~cores:(Trace_program.max_core program + 1) ~skip_it ()) in
  let (cycles, checksums), latency =
    with_latency name (fun () -> Trace_program.run sys program)
  in
  { name; cycles; checksums; latency; attribution = []; stats = S.stats_report sys }

(* The banked-NUCA scaling row: the Fig. 9 32 KiB flush point at
   l2_banks = 4, 1 vs 8 threads, measured by Fig. 9's own kernel (the
   window covers the flush phase only; setup stores and the population
   fence are outside it).  "speedup_milli" pins the near-linear scaling the
   banked L2 buys; a bench/gates rule bounds it. *)
let run_banked_scaling_workload () =
  let params = C.Params.with_l2_banks C.default 4 in
  let measure threads =
    Micro.run params (Micro.Writeback Message.Wb_flush) ~threads ~size:32768 ~rep:0
  in
  let c1 = measure 1 and c8 = measure 8 in
  {
    name = "fig9_32k_flush_l2b4";
    cycles = c8;
    checksums = [| c1; c8 |];
    latency = [];
    attribution = [];
    stats =
      [
        "cycles_1t", c1;
        "cycles_8t", c8;
        ( "speedup_milli",
          int_of_float (Float.round (1000. *. float_of_int c1 /. float_of_int c8)) );
      ];
  }

let milli x = int_of_float (Float.round (x *. 1000.))

(* Serving-engine points: the hash table under Poisson load, per-operation
   persists (batch 1) vs group commit (batch 8), with the per-stage cycle
   attribution so the pins say where the cycles go, not just how many. *)
let run_serve_workload ?(workload = Workload.default) ?(tag = "") ~batch ~rate () =
  let cfg =
    { Engine.default with Engine.requests = 600; batch; telemetry = true; workload }
  in
  let name = Printf.sprintf "serve_hash%s_r%.0f_b%d" tag rate batch in
  let p, latency = with_latency name (fun () -> Engine.run cfg ~rate) in
  {
    name;
    cycles = p.Engine.elapsed;
    checksums = [| p.Engine.served; p.Engine.shed |];
    latency;
    attribution = p.Engine.attribution;
    stats =
      [
        "served", p.Engine.served;
        "shed", p.Engine.shed;
        "epochs", p.Engine.epochs;
        "flushes", p.Engine.flushes;
        "deferred", p.Engine.deferred;
        "passthrough", p.Engine.passthrough;
        "fences", p.Engine.fences;
        "achieved_milli", milli p.Engine.achieved;
        "attr_trimmed", p.Engine.attr_trimmed;
        "attr_conserved", (if p.Engine.attr_conserved then 1 else 0);
        "skip_dropped", p.Engine.skip_dropped;
        "wb_submitted", p.Engine.wb_submitted;
      ];
  }

(* The fleet robustness row: 2×10^5 open-loop clients over a 4-shard,
   2-replica fleet with one seeded shard kill at steady state.  The pinned
   numbers are the kill-one-shard SLOs: achieved throughput, shed fraction,
   failover/recovery work — and zero verification violations. *)
let run_fleet_workload () =
  let cfg =
    { Fleet.default with Fleet.clients = 200_000; requests = 2000; faults = Fleet.Seeded 1 }
  in
  let p, latency = with_latency "fleet_kill1" (fun () -> Fleet.run cfg ~rate:16.) in
  {
    name = "fleet_kill1";
    cycles = p.Fleet.elapsed;
    checksums = [| p.Fleet.served; p.Fleet.shed; p.Fleet.failovers |];
    latency;
    attribution = [];
    stats =
      [
        "served", p.Fleet.served;
        "shed", p.Fleet.shed;
        "shed_milli", milli (Fleet.shed_fraction p);
        "partial", p.Fleet.partial;
        "failovers", p.Fleet.failovers;
        "crashes", p.Fleet.crashes;
        "repairs", p.Fleet.repairs;
        "retries", p.Fleet.retries;
        "hints", p.Fleet.hints;
        "recovery_cycles", p.Fleet.recovery_cycles;
        "achieved_milli", milli p.Fleet.achieved;
        "violations", List.length p.Fleet.violations;
        "leaked", p.Fleet.leaked;
      ];
  }

let zipf ?churn theta_milli = { Workload.keys = Workload.Zipf { theta_milli }; churn }

(* Thunks, so the rows run (and appear) in list order. *)
let workloads =
  List.concat_map
    (fun trace ->
      List.map (fun skip_it () -> run_trace_workload trace ~skip_it) [ false; true ])
    [ "producer_consumer"; "redundant_flush"; "fig5_semantics"; "store_double_flush_8t" ]
  @ [
      run_banked_scaling_workload;
      run_fleet_workload;
    ]
  @ List.concat_map
      (fun rate -> List.map (fun batch () -> run_serve_workload ~batch ~rate ()) [ 1; 8 ])
      [ 8.; 16.; 24. ]
  (* Skewed-workload rows: the same serve config under Zipfian key
     popularity (FliT's evaluation standard) so a gate can bound the
     skewed-over-uniform p99 ratio; the churn row additionally rotates
     the hot set every 4000 cycles. *)
  @ [
      run_serve_workload ~tag:"_zipf90" ~workload:(zipf 900) ~batch:8 ~rate:16.;
      run_serve_workload ~tag:"_zipf99" ~workload:(zipf 990) ~batch:8 ~rate:16.;
      run_serve_workload ~tag:"_zipf99churn" ~workload:(zipf 990 ~churn:4000) ~batch:8
        ~rate:16.;
    ]

let json_of_results results =
  let buf = Buffer.create 65536 in
  let add fmt = Printf.bprintf buf fmt in
  let fields f kvs = String.concat ", " (List.map f kvs) in
  add "{\n  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n";
      add "    {\n      \"name\": \"%s\",\n      \"cycles\": %d,\n" r.name r.cycles;
      add "      \"checksums\": [%s],\n"
        (fields string_of_int (Array.to_list r.checksums));
      add "      \"latency\": {%s},\n"
        (fields
           (fun (cls, s) ->
             Printf.sprintf
               "\"%s\": {\"count\": %d, \"mean\": %.2f, \"p50\": %.1f, \"p95\": %.1f, \
                \"p99\": %.1f, \"p999\": %.1f, \"max\": %.1f}"
               cls s.Latency.count s.Latency.mean s.Latency.p50 s.Latency.p95
               s.Latency.p99 s.Latency.p999 s.Latency.max)
           r.latency);
      let counters kvs = fields (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) kvs in
      if r.attribution <> [] then
        add "      \"attribution\": {%s},\n" (counters r.attribution);
      add "      \"stats\": {%s}\n    }" (counters r.stats))
    results;
  add "\n  ]\n}\n";
  Buffer.contents buf

let () =
  let out =
    match Array.to_list Sys.argv with
    | [ _ ] -> "BENCH_results.json"
    | [ _; path ] when not (String.starts_with ~prefix:"-" path) -> path
    | _ -> fail "usage: main.exe [OUT]"
  in
  let results = List.map (fun run -> run ()) workloads in
  Out_channel.with_open_bin out (fun oc -> output_string oc (json_of_results results))
