(* Benchmark harness.

   Three parts:

   1. Figure regeneration — runs every evaluation experiment of the paper
      (Figs 9-16 plus the §7.2 scalars) at full fidelity and prints the rows
      behind each plot, followed by the design-choice ablations from
      DESIGN.md.

   2. A Bechamel suite with one [Test.make] per table/figure (the quick
      variant of each driver, so the regression harness measures the cost of
      regenerating each experiment).  The simulator's hot operations are
      timed by the layer probes in perfbench/perf.ml.

   3. A machine-readable summary: BENCH_results.json with per-workload
      simulated cycle counts and the full counter report (including the
      per-port beat/stall counters), for diffing across commits.  Run with
      --json-only to emit just that. *)

open Bechamel
open Toolkit

module Figures = Skipit_workload.Figures
module Ablation = Skipit_workload.Ablation
module Pool = Skipit_par.Pool
module S = Skipit_core.System
module C = Skipit_core.Config
module Trace = Skipit_obs.Trace
module Latency = Skipit_obs.Latency

(* --jobs N (or --jobs=N): worker domains for the figure/ablation drivers
   and the JSON workload set.  Default: one per core, capped at 8. *)
let jobs =
  let jobs = ref (Pool.default_jobs ()) in
  Array.iteri
    (fun i a ->
      let set v = match int_of_string_opt v with Some n when n > 0 -> jobs := n | _ -> () in
      if a = "--jobs" && i + 1 < Array.length Sys.argv then set Sys.argv.(i + 1)
      else if String.starts_with ~prefix:"--jobs=" a then
        set (String.sub a 7 (String.length a - 7)))
    Sys.argv;
  !jobs

(* --out FILE (or --out=FILE): where to write the JSON summary.  The CI
   perf gate uses this to produce a fresh file next to the committed one. *)
let out_path =
  let out = ref "BENCH_results.json" in
  Array.iteri
    (fun i a ->
      if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1)
      else if String.starts_with ~prefix:"--out=" a then
        out := String.sub a 6 (String.length a - 6))
    Sys.argv;
  !out

(* --profile: record per-workload GC deltas (minor/major words, collection
   counts) from [Gc.quick_stat] around each serial run.  Allocation is a
   host-side property, so the simulated results are unaffected; the JSON
   gains a "gc" object per workload. *)
let profile = Array.exists (( = ) "--profile") Sys.argv

(* --baseline FILE (or --baseline=FILE): the pinned pre-refactor serial
   measurement that "speedup_vs_serial" is defined against (see
   EXPERIMENTS.md).  Defaults to the committed pin; when the file is
   missing the ratio falls back to this run's own serial pass. *)
let baseline_path =
  let p = ref "bench/baseline_v1.json" in
  Array.iteri
    (fun i a ->
      if a = "--baseline" && i + 1 < Array.length Sys.argv then p := Sys.argv.(i + 1)
      else if String.starts_with ~prefix:"--baseline=" a then
        p := String.sub a 11 (String.length a - 11))
    Sys.argv;
  !p

(* Pull each workload's ("name", "wall_ms") pair out of a results file
   without a JSON dependency: every workload object lists "name" before
   "wall_ms", and the file-level keys come before the first "name". *)
let baseline_walls path =
  if not (Sys.file_exists path) then None
  else begin
    let s = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length s in
    let rec find key i =
      let k = String.length key in
      if i + k > n then None
      else if String.sub s i k = key then Some (i + k)
      else find key (i + 1)
    in
    let rec go i acc =
      match find "\"name\": \"" i with
      | None -> List.rev acc
      | Some j -> (
        let name = String.sub s j (String.index_from s j '"' - j) in
        match find "\"wall_ms\": " j with
        | None -> List.rev acc
        | Some w ->
          let e = ref w in
          while !e < n && (match s.[!e] with '0' .. '9' | '.' -> true | _ -> false) do
            incr e
          done;
          go !e ((name, float_of_string (String.sub s w (!e - w))) :: acc))
    in
    Some (go 0 [])
  end

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let figure_test name =
  Test.make ~name
    (Staged.stage (fun () ->
       match Figures.by_name name with
       | Some f -> f ~quick:true null_ppf
       | None -> assert false))

let all_tests =
  Test.make_grouped ~name:"skipit" ~fmt:"%s %s"
    (List.map figure_test
       [ "scalar"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16" ])

let run_bechamel () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== Bechamel: one Test.make per figure (regeneration cost) ==\n";
  Printf.printf "%-28s %16s %10s\n" "test" "ns/run" "r^2";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
       let est =
         match Analyze.OLS.estimates ols with Some (x :: _) -> x | Some [] | None -> nan
       in
       let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
       Printf.printf "%-28s %16.0f %10.3f\n" name est r2)

(* == Machine-readable results ========================================== *)

let trace_path name =
  let candidates =
    [
      Printf.sprintf "examples/traces/%s.trace" name;
      Printf.sprintf "../examples/traces/%s.trace" name;
      Printf.sprintf "../../../examples/traces/%s.trace" name;
    ]
  in
  List.find_opt Sys.file_exists candidates

(* A workload result: elapsed cycles, per-class latency percentiles, the
   full stats report, and the host wall-clock cost of simulating it. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type workload_result = {
  w_name : string;
  cycles : int;
  checksums : int array;
  latency : (string * Latency.summary) list;
  attribution : (string * int) list;
      (* per-stage critical-path cycles; non-empty only for serve points *)
  stats : (string * int) list;
  mutable wall_ms : float;
  mutable gc : gc_delta option;
}

(* Run [f] with tracing on and distill the per-class latency summaries
   (plus "overall") from the recorded request spans.  Tracing never changes
   simulated timing, so the cycle counts are those of an untraced run. *)
let with_latency f =
  (* Reqs-only sink: the histograms are distilled purely from the
     [Req_start]/[Req_end] spans, so detail events are never recorded (or
     allocated) — the summaries are byte-identical to full tracing as long
     as the ring never dropped a span, which 2^20 slots guarantees for
     every workload here. *)
  let tr = Trace.start ~capacity:(1 lsl 20) ~reqs_only:true () in
  let r = Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) f in
  let lat = Latency.of_trace tr in
  let overall =
    match Latency.summarize (Latency.overall lat) with
    | Some s -> [ "overall", s ]
    | None -> []
  in
  r, overall @ Latency.summaries lat

let run_trace_workload name ~skip_it =
  match trace_path name with
  | None -> None
  | Some path ->
    (match Skipit_workload.Trace_program.load_file path with
     | Error _ -> None
     | Ok program ->
       let cores = Skipit_workload.Trace_program.max_core program + 1 in
       let sys = S.create (C.platform ~cores ~skip_it ()) in
       let (cycles, checksums), latency =
         with_latency (fun () -> Skipit_workload.Trace_program.run sys program)
       in
       Some
         {
           w_name = Printf.sprintf "%s%s" name (if skip_it then "+skipit" else "");
           cycles;
           checksums;
           latency;
           attribution = [];
           stats = S.stats_report sys;
           wall_ms = 0.;
           gc = None;
         })

(* The Fig. 9-style scaling point: 8 threads, each store+flush+flush over a
   private region — the workload whose behaviour Skip It changes most. *)
let run_scaling_workload ~skip_it =
  let threads = 8 and lines = 64 in
  let sys = S.create (C.platform ~cores:threads ~skip_it ()) in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (lines * 64) in
  let module T = Skipit_core.Thread in
  let per = lines / threads in
  let task core =
    {
      T.core;
      body =
        (fun () ->
          for i = core * per to ((core + 1) * per) - 1 do
            T.store (base + (i * 64)) i;
            T.flush (base + (i * 64));
            T.flush (base + (i * 64))
          done;
          T.fence ());
    }
  in
  let cycles, latency = with_latency (fun () -> T.run sys (List.init threads task)) in
  {
    w_name = Printf.sprintf "store_double_flush_8t%s" (if skip_it then "+skipit" else "");
    cycles;
    checksums = [||];
    latency;
    attribution = [];
    stats = S.stats_report sys;
    wall_ms = 0.;
    gc = None;
  }

(* The banked-NUCA scaling row: the Fig. 9 32 KiB flush point at
   l2_banks = 4, 1 vs 8 threads.  As in the figure, the measured window
   covers the flush phase only (setup stores and the population fence are
   outside it).  "speedup_milli" pins the near-linear scaling the banked
   L2 buys; CI gates it with bench_gate --min-bank-speedup. *)
let run_banked_scaling_workload () =
  let params = C.Params.with_l2_banks C.default 4 in
  let size = 32768 and line = 64 in
  let measure threads =
    let params = C.Params.with_cores params threads in
    let sys = S.create params in
    let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line size in
    let per = size / line / threads in
    let module T = Skipit_core.Thread in
    let starts = Array.make threads max_int and ends = Array.make threads 0 in
    let task core =
      {
        T.core;
        body =
          (fun () ->
            let lo = base + (core * per * line) in
            for i = 0 to per - 1 do
              T.store (lo + (i * line)) (i + 1)
            done;
            T.fence ();
            starts.(core) <- T.now ();
            for i = 0 to per - 1 do
              T.flush (lo + (i * line))
            done;
            T.fence ();
            ends.(core) <- T.now ());
      }
    in
    ignore (T.run sys (List.init threads task));
    Array.fold_left max 0 ends - Array.fold_left min max_int starts
  in
  let c1 = measure 1 and c8 = measure 8 in
  {
    w_name = "fig9_32k_flush_l2b4";
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
    wall_ms = 0.;
    gc = None;
  }

(* Serving-engine points: the hash table under Poisson load at three offered
   rates, per-operation persists (batch 1) vs group commit (batch 8).  The
   p99-vs-load pairs land in the JSON so the perf gate locks in the
   group-commit win (higher achieved throughput, lower tail at rate 16+). *)
let run_serve_workload ?workload ?(tag = "") ~batch ~rate () =
  let module Engine = Skipit_serve.Engine in
  let module Workload = Skipit_serve.Workload in
  let workload =
    match workload with Some w -> w | None -> Workload.default
  in
  let cfg =
    { Engine.default with Engine.requests = 600; batch; telemetry = true; workload }
  in
  let point, latency = with_latency (fun () -> Engine.run cfg ~rate) in
  {
    w_name = Printf.sprintf "serve_hash%s_r%.0f_b%d" tag rate batch;
    cycles = point.Engine.elapsed;
    checksums = [| point.Engine.served; point.Engine.shed |];
    latency;
    (* The per-stage breakdown lands in the JSON so the perf gate pins
       where the cycles go, not just how many there are. *)
    attribution = point.Engine.attribution;
    stats =
      [
        "served", point.Engine.served;
        "shed", point.Engine.shed;
        "epochs", point.Engine.epochs;
        "flushes", point.Engine.flushes;
        "deferred", point.Engine.deferred;
        "passthrough", point.Engine.passthrough;
        "fences", point.Engine.fences;
        ( "achieved_milli",
          int_of_float (Float.round (point.Engine.achieved *. 1000.)) );
        "attr_trimmed", point.Engine.attr_trimmed;
        "attr_conserved", (if point.Engine.attr_conserved then 1 else 0);
        "skip_dropped", point.Engine.skip_dropped;
        "wb_submitted", point.Engine.wb_submitted;
      ];
    wall_ms = 0.;
    gc = None;
  }

(* The fleet robustness row: 2×10^5 open-loop clients over a 4-shard,
   2-replica fleet with one seeded shard kill at steady state.  The pinned
   numbers are the kill-one-shard SLOs: achieved throughput, shed fraction,
   failover/recovery work — and zero verification violations, so CI holds
   the line on durable linearizability under crashes, not just on speed. *)
let run_fleet_workload () =
  let module Fleet = Skipit_fleet.Fleet in
  let cfg =
    {
      Fleet.default with
      Fleet.clients = 200_000;
      requests = 2000;
      faults = Fleet.Seeded 1;
    }
  in
  let point, latency = with_latency (fun () -> Fleet.run cfg ~rate:16.) in
  {
    w_name = "fleet_kill1";
    cycles = point.Fleet.elapsed;
    checksums = [| point.Fleet.served; point.Fleet.shed; point.Fleet.failovers |];
    latency;
    attribution = [];
    stats =
      [
        "served", point.Fleet.served;
        "shed", point.Fleet.shed;
        ( "shed_milli",
          int_of_float (Float.round (1000. *. Fleet.shed_fraction point)) );
        "partial", point.Fleet.partial;
        "failovers", point.Fleet.failovers;
        "crashes", point.Fleet.crashes;
        "repairs", point.Fleet.repairs;
        "retries", point.Fleet.retries;
        "hints", point.Fleet.hints;
        "recovery_cycles", point.Fleet.recovery_cycles;
        ( "achieved_milli",
          int_of_float (Float.round (point.Fleet.achieved *. 1000.)) );
        "violations", List.length point.Fleet.violations;
        "leaked", point.Fleet.leaked;
      ];
    wall_ms = 0.;
    gc = None;
  }

(* Host wall-clock timing of the JSON workload set: each workload is timed
   individually in the serial pass; the parallel pass times the whole set
   under the pool.  Simulated results are taken from the serial pass, so
   the cycle counts / checksums / stats in the file never depend on the
   pool width. *)
type timing = {
  t_jobs : int;
  t_width : int;  (* effective pool width after the host-core clamp *)
  t_cores : int;  (* host cores the clamp was computed from *)
  wall_ms_serial : float;
  wall_ms_parallel : float;  (* = serial when the effective width is 1 *)
  baseline : (string * float) list option;
      (* pinned pre-refactor serial wall per workload *)
}

(* (pinned wall, this run's serial wall) for a workload the baseline has. *)
let baseline_pair timing r =
  Option.bind timing.baseline (fun base ->
    Option.map (fun b -> b, r.wall_ms) (List.assoc_opt r.w_name base))

let json_of_results ~timing results =
  let total_workload_ms =
    List.fold_left (fun acc r -> acc +. r.wall_ms) 0. results
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" timing.t_jobs);
  Buffer.add_string buf (Printf.sprintf "  \"pool_width\": %d,\n" timing.t_width);
  (* Honesty fields: when the pool clamped an oversubscribed --jobs to the
     host's core count, say so — the wall-clock ratios below were measured
     at the effective width, and the gate scales its floor accordingly. *)
  if timing.t_width < timing.t_jobs then begin
    Buffer.add_string buf "  \"pool_clamped\": true,\n";
    Buffer.add_string buf (Printf.sprintf "  \"cores_detected\": %d,\n" timing.t_cores)
  end;
  Buffer.add_string buf (Printf.sprintf "  \"wall_ms\": %.2f,\n" timing.wall_ms_parallel);
  Buffer.add_string buf
    (Printf.sprintf "  \"wall_ms_serial\": %.2f,\n" timing.wall_ms_serial);
  (* "speedup_vs_serial" is the engine-v2 headline: the pinned pre-refactor
     serial wall (bench/baseline_v1.json, measured with the v1 engine at
     --jobs 1) over this run's serial wall, both summed over only the
     workloads present in both files, so rows added since the pin never
     enter the ratio.  Each shared workload also carries its own
     "speedup_vs_baseline".  "pool_efficiency" is the intra-run parallel
     ratio (this run's serial pass over its pooled pass). *)
  (match timing.baseline with
   | Some _ ->
     let pairs = List.filter_map (baseline_pair timing) results in
     let b = List.fold_left (fun acc (b, _) -> acc +. b) 0. pairs in
     let f = List.fold_left (fun acc (_, f) -> acc +. f) 0. pairs in
     Buffer.add_string buf
       (Printf.sprintf "  \"baseline_workloads\": %d,\n" (List.length pairs));
     Buffer.add_string buf (Printf.sprintf "  \"baseline_wall_ms\": %.2f,\n" b);
     Buffer.add_string buf (Printf.sprintf "  \"shared_wall_ms\": %.2f,\n" f);
     Buffer.add_string buf
       (Printf.sprintf "  \"speedup_vs_serial\": %.2f,\n" (if f > 0. then b /. f else 1.))
   | None ->
     Buffer.add_string buf
       (Printf.sprintf "  \"speedup_vs_serial\": %.2f,\n"
          (if timing.wall_ms_parallel > 0. then
             timing.wall_ms_serial /. timing.wall_ms_parallel
           else 1.)));
  Buffer.add_string buf
    (Printf.sprintf "  \"pool_efficiency\": %.2f,\n"
       (if timing.wall_ms_parallel > 0. then
          timing.wall_ms_serial /. timing.wall_ms_parallel
        else 1.));
  Buffer.add_string buf
    (Printf.sprintf "  \"wall_ms_workloads\": %.2f,\n" total_workload_ms);
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "    {\n      \"name\": \"%s\",\n" r.w_name);
      Buffer.add_string buf (Printf.sprintf "      \"cycles\": %d,\n" r.cycles);
      Buffer.add_string buf (Printf.sprintf "      \"wall_ms\": %.2f,\n" r.wall_ms);
      Option.iter
        (fun (b, f) ->
          Buffer.add_string buf
            (Printf.sprintf "      \"speedup_vs_baseline\": %.2f,\n"
               (if f > 0. then b /. f else 1.)))
        (baseline_pair timing r);
      Buffer.add_string buf "      \"checksums\": [";
      Array.iteri
        (fun j c ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (string_of_int c))
        r.checksums;
      Buffer.add_string buf "],\n      \"latency\": {";
      List.iteri
        (fun j (cls, s) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "\"%s\": {\"count\": %d, \"mean\": %.2f, \"p50\": %.1f, \"p95\": %.1f, \
                \"p99\": %.1f, \"p999\": %.1f, \"max\": %.1f}"
               cls s.Latency.count s.Latency.mean s.Latency.p50 s.Latency.p95
               s.Latency.p99 s.Latency.p999 s.Latency.max))
        r.latency;
      if r.attribution <> [] then begin
        Buffer.add_string buf "},\n      \"attribution\": {";
        List.iteri
          (fun j (stage, c) ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Printf.sprintf "\"%s\": %d" stage c))
          r.attribution
      end;
      (match r.gc with
       | Some g ->
         Buffer.add_string buf
           (Printf.sprintf
              "},\n      \"gc\": {\"minor_words\": %.0f, \"major_words\": %.0f, \"minor_collections\": %d, \"major_collections\": %d"
              g.minor_words g.major_words g.minor_collections g.major_collections)
       | None -> ());
      Buffer.add_string buf "},\n      \"stats\": {";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "\"%s\": %d" k v))
        r.stats;
      Buffer.add_string buf "}\n    }")
    results;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let now_ms () = Unix.gettimeofday () *. 1000.

let emit_json ~jobs path =
  let traces = [ "producer_consumer"; "redundant_flush"; "fig5_semantics" ] in
  let thunks =
    List.concat_map
      (fun name ->
        List.map (fun skip_it () -> run_trace_workload name ~skip_it) [ false; true ])
      traces
    @ [
        (fun () -> Some (run_scaling_workload ~skip_it:false));
        (fun () -> Some (run_scaling_workload ~skip_it:true));
        (fun () -> Some (run_banked_scaling_workload ()));
        (fun () -> Some (run_fleet_workload ()));
      ]
    @ List.concat_map
        (fun rate ->
          List.map (fun batch () -> Some (run_serve_workload ~batch ~rate ())) [ 1; 8 ])
        [ 8.; 16.; 24. ]
    (* Skewed-workload rows: the same serve config under Zipfian key
       popularity (FliT's evaluation standard) so the gate can bound the
       skewed-over-uniform p99 ratio; the churn row additionally rotates
       the hot set every 4000 cycles. *)
    @ (let module Workload = Skipit_serve.Workload in
       [
         (fun () ->
           Some
             (run_serve_workload ~tag:"_zipf90"
                ~workload:{ Workload.keys = Workload.Zipf { theta_milli = 900 }; churn = None }
                ~batch:8 ~rate:16. ()));
         (fun () ->
           Some
             (run_serve_workload ~tag:"_zipf99"
                ~workload:{ Workload.keys = Workload.Zipf { theta_milli = 990 }; churn = None }
                ~batch:8 ~rate:16. ()));
         (fun () ->
           Some
             (run_serve_workload ~tag:"_zipf99churn"
                ~workload:
                  { Workload.keys = Workload.Zipf { theta_milli = 990 }; churn = Some 4000 }
                ~batch:8 ~rate:16. ()));
       ])
  in
  (* Serial pass: the source of truth for every simulated quantity, with
     each workload timed individually. *)
  let t0 = now_ms () in
  let results =
    List.filter_map
      (fun thunk ->
        let t = now_ms () in
        let g0 = if profile then Some (Gc.quick_stat ()) else None in
        let r = thunk () in
        (match r, g0 with
         | Some r, Some g0 ->
           let g1 = Gc.quick_stat () in
           r.gc <-
             Some
               {
                 minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
                 major_words = g1.Gc.major_words -. g0.Gc.major_words;
                 minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
                 major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
               }
         | _ -> ());
        Option.iter (fun r -> r.wall_ms <- now_ms () -. t) r;
        r)
      thunks
  in
  let wall_ms_serial = now_ms () -. t0 in
  (* Parallel pass: same jobs on the pool, timed as a set — only the
     wall-clock numbers come from it. *)
  let pool_width = ref 1 in
  let wall_ms_parallel =
    if jobs <= 1 then wall_ms_serial
    else
      Pool.with_pool ~jobs (fun pool ->
        pool_width := Pool.width pool;
        let t0 = now_ms () in
        ignore (Pool.map pool (fun thunk -> thunk ()) thunks);
        now_ms () -. t0)
  in
  let timing =
    {
      t_jobs = jobs;
      t_width = !pool_width;
      t_cores = Domain.recommended_domain_count ();
      wall_ms_serial;
      wall_ms_parallel;
      baseline = baseline_walls baseline_path;
    }
  in
  let oc = open_out path in
  output_string oc (json_of_results ~timing results);
  close_out oc;
  Printf.printf "wrote %s (%d workloads, jobs=%d, %.0f ms serial / %.0f ms parallel)\n"
    path (List.length results) jobs wall_ms_serial wall_ms_parallel

let () =
  if Array.exists (( = ) "--json-only") Sys.argv then
    emit_json ~jobs out_path
  else begin
    let ppf = Format.std_formatter in
    Format.pp_open_vbox ppf 0;
    let run_figures pool =
      Figures.all ~quick:false ?pool ppf;
      Ablation.run_all ?pool ppf
    in
    if jobs <= 1 then run_figures None
    else Pool.with_pool ~jobs (fun pool -> run_figures (Some pool));
    Format.pp_close_box ppf ();
    Format.pp_print_newline ppf ();
    run_bechamel ();
    emit_json ~jobs out_path
  end
