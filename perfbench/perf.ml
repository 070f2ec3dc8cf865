(* Benchmark child process.

   [run.py] spawns this executable once per measurement.  The child builds
   its workload's inputs from the seed, prints "ready" (the parent times
   spawn -> ready as set-up), runs one warm-up trial, then timed trials
   until the time budget is spent, and finally prints one JSON object: the
   host cost of every timed trial, the correctness checks, the simulated
   digest and, with --traced, every per-layer metric.  Between trials it
   measures the host's speed (perf.exe --calibrate, see [host_speed]), and
   reports host times both as measured and scaled to the reference host.

   Every number is taken from outside the library, around calls to its
   public functions; nothing under lib/ is instrumented for the benchmark.

   Set-up is process start (runtime and library module initialisation),
   argument parsing and the harness's own inputs: validated configurations
   and the generated crash specs.  The simulator's set-up of each call
   (System.create, prefill, arrival scheduling) happens inside the public
   call and is timed as part of the trial.

   Usage:
     perf.exe --workload NAME --seed N --seconds S [--traced]
     perf.exe --workload NAME --seed N --setup-only
     perf.exe --calibrate
     perf.exe --list-metrics *)

module S = Skipit_core.System
module C = Skipit_core.Config
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Allocator = Skipit_mem.Allocator
module Ds_bench = Skipit_workload.Ds_bench
module Set_ops = Skipit_pds.Set_ops
module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Engine = Skipit_serve.Engine
module Arrival = Skipit_serve.Arrival
module Workload = Skipit_serve.Workload
module Batcher = Skipit_serve.Batcher
module Fleet = Skipit_fleet.Fleet
module Ring = Skipit_fleet.Ring
module Campaign = Skipit_audit.Campaign
module Invariant = Skipit_audit.Invariant
module Trace = Skipit_obs.Trace
module Latency = Skipit_obs.Latency
module Attribution = Skipit_obs.Attribution
module Sample = Skipit_sim.Stats.Sample
module Resource = Skipit_sim.Resource
module Int_tbl = Skipit_sim.Int_tbl

let now = Unix.gettimeofday

(* == Workload definitions ============================================== *)

let ds = "ds_fig14"
let serve = "serve_zipf_write"
let fleet = "fleet_kill"
let audit = "audit_crash"

(* The §7.4 grid at a quarter of the paper's key range: the linked list's
   prefill is quadratic in it, and at 2048 keys one pass over the 69 cells
   takes ~7 s of host time, too long to repeat within one run. *)
let ds_size = { Ds_bench.default_workload with key_range = 512; prefill = 256; window = 100_000 }

let ds_grid =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun mode ->
          List.filter_map
            (fun spec -> if Ds_bench.compatible kind spec then Some (kind, mode, spec) else None)
            Ds_bench.default_specs)
        Pctx.all_modes)
    Set_ops.all_kinds

(* The rate grid straddles the knee: no shedding at 6-8 ops/kcycle, about
   11 ops/kcycle of throughput at saturation. *)
let serve_rates = [ 6.; 8.; 10.; 12.; 14. ]
let serve_latency_rate = 8.
let serve_peak_rate = 14.
let slo_p999_cycles = 4000.
let slo_shed = 0.01

(* Engine.default supplies the rest: hash table, automatic persistence,
   Skip It, Poisson arrivals, 16 clients, batch 8, depth 64, one core. *)
let serve_cfg =
  {
    Engine.default with
    Engine.requests = 10_000;
    workload =
      { Workload.keys = Workload.Zipf { theta_milli = Workload.default_zipf_theta_milli }; churn = Some 4000 };
    update_pct = 50;
  }

(* Fleet.default supplies 4 shards x 2 replicas, uniform keys and 10%
   multi-gets; above Arrival.aggregate_threshold clients the schedule
   takes the aggregate path.  The mix is read-only: with writes in flight
   across the kill, about 1% of seeds end in a false durability violation
   (the oracle orders same-key writes by their latest replica commit, not
   by execution order) and some hang replaying hints into the repaired
   shard, so no seed could be trusted to pass.  Without writes there are
   no retries or hints, and with one kill at k = 2 nothing is shed and no
   multi-get is partial, so the table has no metric for those. *)
let fleet_cfg =
  { Fleet.default with Fleet.clients = 200_000; requests = 50_000; update_pct = 0; faults = Fleet.Seeded 1 }
let fleet_rate = 16.
let audit_ops = 40
let audit_budget = 30

type cell = { kind : Set_ops.kind; mode : Pctx.mode; spec : Ds_bench.strategy_spec; tp : float }

type outcome =
  | Ds of cell
  | Serve of Engine.point
  | Fleet of Fleet.point
  | Audit of Campaign.report

(* One public library call the harness makes; a trial is a list of them. *)
type call = { label : string; run : unit -> outcome }

type workload = {
  name : string;
  why : string;
  calls : traced:bool -> seed:int -> call list;
      (** Raises [Invalid_argument] on a configuration the library rejects. *)
}

let ds_calls ~traced:_ ~seed =
  let w = { ds_size with Ds_bench.seed } in
  List.map
    (fun (kind, mode, spec) ->
      {
        label =
          Printf.sprintf "Ds_bench.throughput %s/%s/%s" (Set_ops.kind_name kind)
            (Pctx.mode_name mode) (Ds_bench.spec_name spec);
        run = (fun () -> Ds { kind; mode; spec; tp = Ds_bench.throughput ~kind ~mode ~spec w });
      })
    ds_grid

let serve_calls ~traced ~seed =
  let cfg = { serve_cfg with Engine.seed; telemetry = traced } in
  (match Engine.validate cfg with Ok () -> () | Error e -> invalid_arg e);
  List.map
    (fun rate ->
      { label = Printf.sprintf "Engine.run rate=%g" rate; run = (fun () -> Serve (Engine.run cfg ~rate)) })
    serve_rates

let fleet_calls ~traced:_ ~seed =
  let cfg = { fleet_cfg with Fleet.seed } in
  (match Fleet.validate cfg with Ok () -> () | Error e -> invalid_arg e);
  [ { label = Printf.sprintf "Fleet.run rate=%g" fleet_rate; run = (fun () -> Fleet (Fleet.run cfg ~rate:fleet_rate)) } ]

let audit_calls ~traced:_ ~seed =
  List.map
    (fun spec ->
      {
        label = "Campaign.run_spec " ^ Campaign.spec_name spec;
        run = (fun () -> Audit (Campaign.run_spec ~budget:audit_budget spec));
      })
    (Campaign.default_specs ~seed ~n_ops:audit_ops ~fault:Campaign.No_fault)

let workloads =
  [
    {
      name = ds;
      why =
        "Fig. 14 grid, closed loop: read-mostly traversals on the L1-hit path, Thread scheduler and pds; no serve, fleet or audit code";
      calls = ds_calls;
    };
    {
      name = serve;
      why =
        "open-loop zipf:0.99 50:50 writes over a rate grid across the knee: flush unit, skip bit, batcher and arrival generation";
      calls = serve_calls;
    };
    {
      name = fleet;
      why =
        "200k clients read 4x2 shards through one kill: routing, read failover, detection and repair; arrival takes the aggregate path";
      calls = fleet_calls;
    };
    {
      name = audit;
      why =
        "crash campaign of thousands of short trials, each a fresh System crashed, repaired and audited: System.create and the auditor dominate";
      calls = audit_calls;
    };
  ]

(* == Per-layer metric table ============================================ *)

(* [Host] metrics measure the simulator's own cost and name the
   end-to-end metrics they should move.  [Sim] metrics are simulated
   quantities of one layer and name the simulated results they should
   move.  [Result w] metrics are the simulated headline numbers of
   workload [w].  A layer a workload does not drive reads 0 on it. *)
type role = Host | Sim | Result of string

type metric = {
  name : string;
  unit : string;
  higher : bool;
  role : role;
  moves : string list;  (* "metric@workload" *)
  steady : string list;  (* workloads on which the layer barely works *)
}

let on w names = List.map (fun n -> n ^ "@" ^ w) names
let everywhere names = List.concat_map (fun w -> on w names) [ ds; serve; fleet; audit ]

let host ?(higher = false) ?(steady = []) name unit moves =
  { name; unit; higher; role = Host; moves; steady }

let sim ?(higher = false) name unit moves = { name; unit; higher; role = Sim; moves; steady = [] }
let result ?(higher = false) w name unit = { name; unit; higher; role = Result w; moves = []; steady = [] }

let stage_names = List.map Attribution.stage_name Attribution.all_stages
let pds_names = [ "list"; "hash"; "bst"; "skiplist" ]

let pds_name = function
  | Set_ops.List_set -> "list"
  | Set_ops.Hash_set -> "hash"
  | Set_ops.Bst_set -> "bst"
  | Set_ops.Skiplist_set -> "skiplist"

let metrics =
  let serve_tail = on serve [ "serve.p999_cycles"; "serve.achieved_ops_per_kcycle" ] in
  let fleet_tail = on fleet [ "fleet.p999_cycles"; "fleet.achieved_ops_per_kcycle" ] in
  [
    host "serve.arrival.ns_per_req" "ns" (on serve [ "trial_s"; "sim_ops_per_s" ]) ~steady:[ fleet ];
    host "serve.arrival.words_per_req" "words" (on serve [ "trial_s" ]) ~steady:[ fleet ];
    host "serve.arrival.share" "fraction" (on serve [ "trial_s"; "sim_ops_per_s" ]) ~steady:[ fleet ];
    host "fleet.arrival.share" "fraction" (on fleet [ "trial_s" ]);
    host "serve.workload.cdf_build_us" "us" (on serve [ "trial_s" ]);
    host "serve.batcher.commit_ns" "ns" (on serve [ "trial_s" ]);
    host "core.system.create_us" "us" (on audit [ "trial_s"; "sim_ops_per_s" ]) ~steady:[ ds ];
    host "core.system.create_words" "words" (on audit [ "trial_s" ]) ~steady:[ ds ];
    host "core.system.creates" "count" (on audit [ "trial_s" ]);
    host "core.system.create_share" "fraction" (on audit [ "trial_s" ]) ~steady:[ ds ];
    host "core.thread.switch_ns" "ns" (on ds [ "trial_s"; "sim_ops_per_s" ]);
    host "l1.dcache.hit_ns" "ns" (on ds [ "trial_s"; "sim_ops_per_s" ]);
    host "l1.dcache.hit_words" "words" (on ds [ "trial_s" ]);
    host "l1.flush_unit.cbo_wb_ns" "ns" (on serve [ "trial_s" ]) ~steady:[ ds ];
    host "l1.flush_unit.skip_drop_ns" "ns" (on serve [ "trial_s" ]) ~steady:[ ds ];
    host "l2.miss_path_ns" "ns" (on fleet [ "trial_s" ] @ on serve [ "trial_s" ]);
    host "mem.dram.miss_path_ns" "ns" (on fleet [ "trial_s" ] @ on serve [ "trial_s" ]);
    host "fleet.ring.replicas_ns" "ns" (on fleet [ "trial_s" ]);
    host "audit.invariant.check_all_us" "us" (on audit [ "trial_s" ]) ~steady:[ fleet ];
    host "audit.auditor_share" "fraction" (on audit [ "trial_s" ]) ~steady:[ fleet ];
    host "sim.resource.acquire_ns" "ns" (on ds [ "trial_s" ]);
    host "sim.int_tbl.ns" "ns" (on ds [ "trial_s" ]);
    host "harness.call_ms_max" "ms" (on ds [ "trial_s" ]);
    host "host.minor_words_per_op" "words" (everywhere [ "trial_s"; "peak_rss_mb" ]);
    host ~higher:true "sim.cycles_per_ms" "cycles/ms" (everywhere [ "sim_ops_per_s" ]);
    host "obs.trace_overhead" "fraction" (everywhere [ "trial_s" ]);
    host "obs.telemetry_overhead" "fraction" (on serve [ "trial_s" ]);
    result ~higher:true ds "ds.ops_per_kcycle" "ops/kcycle";
    result ~higher:true serve "serve.achieved_ops_per_kcycle" "ops/kcycle";
    result serve "serve.p50_cycles" "cycles";
    result serve "serve.p999_cycles" "cycles";
    result ~higher:true serve "serve.latency_n" "count";
    result ~higher:true serve "serve.max_rate_at_slo" "ops/kcycle";
    result serve "serve.failed_frac" "fraction";
    result ~higher:true fleet "fleet.achieved_ops_per_kcycle" "ops/kcycle";
    result fleet "fleet.p50_cycles" "cycles";
    result fleet "fleet.p999_cycles" "cycles";
    result ~higher:true fleet "fleet.latency_n" "count";
    result ~higher:true audit "audit.trials" "count";
    result audit "audit.persists" "count";
    sim "serve.batcher.lines_per_epoch" "lines" serve_tail;
    sim "serve.batcher.dedup_ratio" "fraction" serve_tail;
  ]
  @ List.map
      (fun s ->
        sim ("serve.attr." ^ s ^ "_share") "fraction"
          (on serve [ "serve.p50_cycles"; "serve.p999_cycles"; "serve.max_rate_at_slo" ]))
      stage_names
  @ [
      sim "l1.dcache.load_misses_per_kop" "count" (on serve [ "serve.p50_cycles" ]);
      sim "l1.dcache.store_misses_per_kop" "count" (on serve [ "serve.p50_cycles" ]);
      sim "l1.dcache.load_miss_p50_cycles" "cycles" (on serve [ "serve.p50_cycles" ]);
      sim "l1.flush_unit.cbos_per_kop" "count" serve_tail;
      sim "l1.flush_unit.writebacks_per_kop" "count" serve_tail;
      sim "l1.flush_unit.cbo_p50_cycles" "cycles" serve_tail;
      sim "l1.flush_unit.cbo_p999_cycles" "cycles" serve_tail;
      sim ~higher:true "l1.flush_unit.skip_hit_rate" "fraction" serve_tail;
      sim "fleet.failovers" "count" fleet_tail;
      sim "fleet.recovery_cycles" "cycles" fleet_tail;
      sim "fleet.shard_busy_imbalance" "ratio" fleet_tail;
    ]
  @ List.map
      (fun k -> sim ~higher:true ("pds." ^ k ^ ".ops_per_kcycle") "ops/kcycle" (on ds [ "ds.ops_per_kcycle" ]))
      pds_names
  @ [
      sim ~higher:true "persist.skipit_over_plain" "ratio" (on ds [ "ds.ops_per_kcycle" ]);
      sim ~higher:true "persist.skipit_over_flit" "ratio" (on ds [ "ds.ops_per_kcycle" ]);
    ]

(* == Small helpers ===================================================== *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no NaN or infinity; a metric that is not finite is reported
   as 0 and flagged by the caller's checks instead. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> 0.
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let timed f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

(* Host ns and minor-heap words per call of [f], over [n] calls. *)
let per_call n f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for i = 1 to n do
    f i
  done;
  let dt = now () -. t0 in
  dt *. 1e9 /. fi n, (Gc.minor_words () -. w0) /. fi n

(* == Host speed ======================================================== *)

(* The host's speed drifts by 10-70% over seconds to minutes as other
   tenants load the machine, so every host time is scaled to a reference
   speed.  The yardstick is a fixed task that shares no code with the
   simulator: 100k random updates of a Hashtbl over 64k keys, holding short
   lists.  Like the simulator's own event and table work, it allocates,
   promotes to the major heap and chases pointers over a few MiB, so the
   same host load slows both by about the same factor.  It takes
   [reference_s] on the reference host (README.md, "Host speed"). *)
let reference_s = 0.025

let calibration_task () =
  let t0 = now () in
  let tbl = Hashtbl.create 1024 in
  let st = ref 12345 in
  for i = 1 to 100_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let k = (!st lsr 8) land 0xffff in
    match Hashtbl.find_opt tbl k with
    | Some (n, l) -> Hashtbl.replace tbl k (n + 1, if n land 7 = 7 then [ i ] else i :: l)
    | None -> Hashtbl.add tbl k (1, [ i ])
  done;
  now () -. t0

(* perf.exe --calibrate: the first pass grows the fresh heap, the second is
   timed. *)
let print_host_speed () =
  ignore (calibration_task ());
  Printf.printf "%.17g\n" (reference_s /. calibration_task ())

(* This host's speed relative to the reference host, measured in a fresh
   process so that nothing the simulator leaves in this one's heap can
   change it.  A host time multiplied by it is the reference host's time. *)
let host_speed () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--calibrate" |] in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic, float_of_string_opt (String.trim out) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "perf: --calibrate failed"

(* Peak resident set of this process in MiB (Linux VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match Scanf.sscanf_opt (input_line ic) "VmHWM: %d kB" (fun kb -> kb) with
    | Some kb -> fi kb /. 1024.
    | None -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* == Spans (traced run only) =========================================== *)

type span = {
  id : int;
  sname : string;
  parent : int;  (* -1 for a root *)
  trial : int;
  t0 : float;
  mutable t1 : float;
}

let spans = ref []
let span_stack = ref []
let next_span = ref 0

let with_span ~trial name f =
  let parent = match !span_stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_span; sname = name; parent; trial; t0 = now (); t1 = 0. } in
  incr next_span;
  spans := s :: !spans;
  span_stack := s :: !span_stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- now ();
      span_stack := List.tl !span_stack)
    f

(* Self time: the span's duration minus the part its children cover
   (children of one span run one after another, never overlapping). *)
let self_times all =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    all;
  List.map (fun s -> s, s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)) all

(* Chrome trace-event JSON: opens in ui.perfetto.dev; args carry the span
   tree (id, parent), the trial id and the self time. *)
let write_spans path =
  let all = List.rev !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0. in
  let us t = (t -. base) *. 1e6 in
  let events =
    List.map
      (fun (s, self) ->
        json_obj
          [
            "name", json_string s.sname;
            "ph", json_string "X";
            "pid", "1";
            "tid", "1";
            "ts", json_float (us s.t0);
            "dur", json_float ((s.t1 -. s.t0) *. 1e6);
            ( "args",
              json_obj
                [
                  "id", string_of_int s.id;
                  "parent", string_of_int s.parent;
                  "trial", string_of_int s.trial;
                  "self_us", json_float (self *. 1e6);
                ] );
          ])
      (self_times all)
  in
  let oc = open_out path in
  output_string oc
    ("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n" ^ String.concat ",\n" events ^ "\n]}\n");
  close_out oc

(* == Outcomes ========================================================== *)

let outcome_ops = function
  | Ds d -> int_of_float (Float.round (d.tp *. fi ds_size.window /. 1000.))
  | Serve p -> p.Engine.n
  | Fleet p -> p.Fleet.n
  | Audit r -> 1 + r.Campaign.boundaries_tested

(* Simulated cycles of the measured windows (prefill excluded); the
   campaign does not expose its trials' clocks, so audit counts none. *)
let outcome_cycles = function
  | Ds _ -> ds_size.window
  | Serve p -> p.Engine.elapsed
  | Fleet p -> p.Fleet.elapsed
  | Audit _ -> 0

let outcome_systems = function
  | Ds _ | Serve _ -> 1
  | Fleet _ -> fleet_cfg.Fleet.shards
  | Audit r -> 1 + r.Campaign.boundaries_tested

let check_outcome = function
  | Ds d -> if Float.is_finite d.tp && d.tp > 0. then None else Some "throughput is not a positive number"
  | Serve p ->
    if p.Engine.served + p.Engine.shed <> p.Engine.n then
      Some (Printf.sprintf "served %d + shed %d <> %d" p.Engine.served p.Engine.shed p.Engine.n)
    else if p.Engine.leaked <> 0 then Some (Printf.sprintf "%d leaked waiting-room slots" p.Engine.leaked)
    else if not p.Engine.attr_conserved then Some "attribution not conserved"
    else None
  | Fleet p ->
    if p.Fleet.violations <> [] then Some (String.concat "; " p.Fleet.violations)
    else if p.Fleet.leaked <> 0 then Some (Printf.sprintf "%d leaked waiting-room slots" p.Fleet.leaked)
    else None
  | Audit r -> (
    match r.Campaign.failure with
    | None -> None
    | Some f -> Some (String.concat "; " f.Campaign.violations))

let summary_text = function
  | None -> "-"
  | Some s ->
    Printf.sprintf "%d %h %h %h %h %h %h" s.Latency.count s.Latency.mean s.Latency.p50 s.Latency.p95
      s.Latency.p99 s.Latency.p999 s.Latency.max

(* Every simulated output of a call, exactly (hex floats); the digest of a
   trial hashes these lines.  Telemetry-only fields are left out: they
   exist only in the traced run, whose digest must match the untraced one. *)
let outcome_text = function
  | Ds d ->
    Printf.sprintf "ds %s %s %s %h" (Set_ops.kind_name d.kind) (Pctx.mode_name d.mode)
      (Ds_bench.spec_name d.spec) d.tp
  | Serve p ->
    Printf.sprintf "serve %h %h %d %d %d %d %d %d %d %d %d %d %d %d | %s | %s" p.Engine.offered
      p.Engine.achieved p.Engine.served p.Engine.shed p.Engine.n p.Engine.elapsed p.Engine.epochs
      p.Engine.flushes p.Engine.deferred p.Engine.passthrough p.Engine.fences p.Engine.leaked
      p.Engine.skip_dropped p.Engine.wb_submitted (summary_text p.Engine.latency)
      (summary_text p.Engine.dequeue_latency)
  | Fleet p ->
    let shard s =
      Printf.sprintf "%d %s %d %d %d %d %d %d %d" s.Fleet.s_id s.Fleet.s_state s.Fleet.s_executed
        s.Fleet.s_commits s.Fleet.s_shed s.Fleet.s_crashes s.Fleet.s_hints s.Fleet.s_recovery
        s.Fleet.s_busy
    in
    Printf.sprintf "fleet %h %h %d %d %d %d %d %d %d %d %d %d %d %d %d | %s | %s | %s | %s" p.Fleet.offered
      p.Fleet.achieved p.Fleet.served p.Fleet.shed p.Fleet.partial p.Fleet.n p.Fleet.elapsed
      p.Fleet.failovers p.Fleet.crashes p.Fleet.repairs p.Fleet.recovery_cycles p.Fleet.retries
      p.Fleet.hints p.Fleet.checkpoints p.Fleet.leaked
      (String.concat "; " p.Fleet.violations)
      (summary_text p.Fleet.latency) (summary_text p.Fleet.dequeue_latency)
      (String.concat ", " (Array.to_list (Array.map shard p.Fleet.shards)))
  | Audit r ->
    Printf.sprintf "audit %s %d %d %s" (Campaign.spec_name r.Campaign.spec) r.Campaign.persists
      r.Campaign.boundaries_tested
      (match r.Campaign.failure with
       | None -> "clean"
       | Some f ->
         Printf.sprintf "%s %d %s"
           (match f.Campaign.crash_at with Some b -> string_of_int b | None -> "-")
           f.Campaign.completed (String.concat "; " f.Campaign.violations))

(* == Trials ============================================================ *)

type trial = {
  words : float;  (* minor words allocated by the calls *)
  results : (string * (outcome, string) result) list;  (* call label, outcome *)
  call_walls : float list;  (* host seconds of each call, in call order *)
  call_speeds : float list;  (* host speed during each call *)
}

let attempt c = match c.run () with o -> Ok o | exception e -> Error (Printexc.to_string e)

(* The host speed changes within seconds, so a trial stops to measure it
   after the first call that ends this long after the last measurement,
   and after its last call.  Each call's speed is the mean of the
   measurements just before and just after its stretch of calls. *)
let speed_every_s = 0.5
let speed_span = "host speed"

(* Runs [calls] in order; [before] is the speed measured just before the
   first.  Returns the trial and the speed measured after its last call,
   the next trial's [before]. *)
let run_trial ?(wrap = fun _ f -> f ()) ?(wrap_speed = fun f -> f ()) ~before calls =
  (* [stretch]: the calls since the last measurement, newest first, as
     (label, result, seconds, minor words); [timed_calls] likewise with
     their speeds. *)
  let rec go before since stretch timed_calls = function
    | [] -> List.rev timed_calls, before
    | c :: rest ->
      let w0 = Gc.minor_words () in
      let r, dt = timed (fun () -> wrap c (fun () -> attempt c)) in
      let stretch = (c.label, r, dt, Gc.minor_words () -. w0) :: stretch in
      if since +. dt < speed_every_s && rest <> [] then go before (since +. dt) stretch timed_calls rest
      else
        let after = wrap_speed host_speed in
        let speed = (before +. after) /. 2. in
        go after 0. [] (List.map (fun call -> call, speed) stretch @ timed_calls) rest
  in
  let timed_calls, after = go before 0. [] [] calls in
  ( {
      words = List.fold_left (fun acc ((_, _, _, w), _) -> acc +. w) 0. timed_calls;
      results = List.map (fun ((label, r, _, _), _) -> label, r) timed_calls;
      call_walls = List.map (fun ((_, _, dt, _), _) -> dt) timed_calls;
      call_speeds = List.map snd timed_calls;
    },
    after )

let scaled_calls t = List.map2 ( *. ) t.call_walls t.call_speeds
let sum = List.fold_left ( +. ) 0.
let wall t = sum t.call_walls
let scaled_wall t = sum (scaled_calls t)

(* Host seconds per trial: each call's median over the trials, summed
   over the trial's calls, with the call times [times] gives.  The host's
   speed dips for a second or two at a time, slowing the calls of one or
   two trials; the per-call median drops those samples, where a median of
   whole-trial times would keep them. *)
let trial_seconds times trials =
  let cols = Array.of_list (List.map (fun t -> Array.of_list (times t)) trials) in
  let calls = Array.length cols.(0) in
  let total = ref 0. in
  for j = 0 to calls - 1 do
    total := !total +. median (Array.to_list (Array.map (fun c -> c.(j)) cols))
  done;
  !total

let outcomes t = List.filter_map (function _, Ok o -> Some o | _, Error _ -> None) t.results
let trial_ops t = List.fold_left (fun acc o -> acc + outcome_ops o) 0 (outcomes t)
let trial_cycles t = List.fold_left (fun acc o -> acc + outcome_cycles o) 0 (outcomes t)

let trial_failures t =
  List.filter_map
    (fun (label, r) ->
      match r with
      | Error e -> Some (label ^ ": raised " ^ e)
      | Ok o -> Option.map (fun why -> label ^ ": " ^ why) (check_outcome o))
    t.results

let trial_digest t =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (label, r) ->
               label ^ " => " ^ match r with Ok o -> outcome_text o | Error e -> "raised " ^ e)
             t.results)))

(* == Simulated per-layer metrics of one trial ========================== *)

(* Request classes whose spans the traced run aggregates across calls. *)
let traced_classes =
  Trace.[ Cls_load_miss; Cls_store_miss; Cls_cbo_clean; Cls_cbo_flush; Cls_writeback ]

let percentile s p = if Sample.is_empty s then 0. else Sample.percentile s p

let sim_metrics ~set (t : trial) (lat : (Trace.cls * Sample.t) list) =
  let os = outcomes t in
  let kops = fi (trial_ops t) /. 1000. in
  let count cls = fi (Sample.count (List.assoc cls lat)) in
  set "l1.dcache.load_misses_per_kop" (ratio (count Trace.Cls_load_miss) kops);
  set "l1.dcache.store_misses_per_kop" (ratio (count Trace.Cls_store_miss) kops);
  set "l1.dcache.load_miss_p50_cycles" (percentile (List.assoc Trace.Cls_load_miss lat) 50.);
  let cbos = Sample.create () in
  List.iter
    (fun cls -> Array.iter (Sample.add cbos) (Sample.values (List.assoc cls lat)))
    [ Trace.Cls_cbo_clean; Trace.Cls_cbo_flush ];
  set "l1.flush_unit.cbos_per_kop" (ratio (fi (Sample.count cbos)) kops);
  set "l1.flush_unit.cbo_p50_cycles" (percentile cbos 50.);
  set "l1.flush_unit.cbo_p999_cycles" (percentile cbos 99.9);
  set "l1.flush_unit.writebacks_per_kop" (ratio (count Trace.Cls_writeback) kops);
  let summary_p f = function Some s -> f s | None -> 0. in
  (* ds_fig14 *)
  let cells = List.filter_map (function Ds d -> Some d | _ -> None) os in
  if cells <> [] then begin
    set "ds.ops_per_kcycle" (geomean (List.map (fun d -> d.tp) cells));
    List.iter
      (fun kind ->
        set
          ("pds." ^ pds_name kind ^ ".ops_per_kcycle")
          (geomean (List.filter_map (fun d -> if d.kind = kind then Some d.tp else None) cells)))
      Set_ops.all_kinds;
    let tp kind mode spec =
      List.find_map (fun d -> if d.kind = kind && d.mode = mode && d.spec = spec then Some d.tp else None) cells
    in
    let over others =
      geomean
        (List.concat_map
           (fun d ->
             if d.spec <> Ds_bench.Skipit then []
             else
               List.filter_map
                 (fun o -> Option.map (fun b -> d.tp /. b) (tp d.kind d.mode o))
                 others)
           cells)
    in
    set "persist.skipit_over_plain" (over [ Ds_bench.Plain ]);
    set "persist.skipit_over_flit"
      (over
         (List.filter
            (function Ds_bench.Flit_adjacent | Ds_bench.Flit_hash _ -> true | _ -> false)
            Ds_bench.default_specs))
  end;
  (* serve_zipf_write *)
  let points = List.filter_map (function Serve p -> Some p | _ -> None) os in
  if points <> [] then begin
    let at rate = List.find_opt (fun p -> p.Engine.offered = rate) points in
    Option.iter
      (fun p ->
        set "serve.p50_cycles" (summary_p (fun s -> s.Latency.p50) p.Engine.latency);
        set "serve.p999_cycles" (summary_p (fun s -> s.Latency.p999) p.Engine.latency);
        set "serve.latency_n" (summary_p (fun s -> fi s.Latency.count) p.Engine.latency);
        set "serve.batcher.lines_per_epoch" (ratio (fi p.Engine.flushes) (fi p.Engine.epochs));
        set "serve.batcher.dedup_ratio" (ratio (fi p.Engine.flushes) (fi p.Engine.deferred));
        let total = fi (List.fold_left (fun acc (_, c) -> acc + c) 0 p.Engine.attribution) in
        List.iter
          (fun (stage, c) -> set ("serve.attr." ^ stage ^ "_share") (ratio (fi c) total))
          p.Engine.attribution)
      (at serve_latency_rate);
    Option.iter (fun p -> set "serve.achieved_ops_per_kcycle" p.Engine.achieved) (at serve_peak_rate);
    let meets p =
      summary_p (fun s -> s.Latency.p999) p.Engine.latency <= slo_p999_cycles
      && Engine.shed_fraction p <= slo_shed
    in
    set "serve.max_rate_at_slo"
      (List.fold_left (fun acc p -> if meets p then Float.max acc p.Engine.offered else acc) 0. points);
    let sum f = fi (List.fold_left (fun acc p -> acc + f p) 0 points) in
    set "serve.failed_frac" (ratio (sum (fun p -> p.Engine.shed)) (sum (fun p -> p.Engine.n)));
    let dropped = sum (fun p -> p.Engine.skip_dropped) in
    set "l1.flush_unit.skip_hit_rate" (ratio dropped (dropped +. sum (fun p -> p.Engine.wb_submitted)))
  end;
  (* fleet_kill *)
  List.iter
    (function
      | Fleet p ->
        set "fleet.achieved_ops_per_kcycle" p.Fleet.achieved;
        set "fleet.p50_cycles" (summary_p (fun s -> s.Latency.p50) p.Fleet.latency);
        set "fleet.p999_cycles" (summary_p (fun s -> s.Latency.p999) p.Fleet.latency);
        set "fleet.latency_n" (summary_p (fun s -> fi s.Latency.count) p.Fleet.latency);
        set "fleet.failovers" (fi p.Fleet.failovers);
        set "fleet.recovery_cycles" (fi p.Fleet.recovery_cycles);
        let busy = Array.to_list (Array.map (fun s -> fi s.Fleet.s_busy) p.Fleet.shards) in
        let mean = List.fold_left ( +. ) 0. busy /. fi (List.length busy) in
        set "fleet.shard_busy_imbalance" (ratio (List.fold_left Float.max 0. busy) mean)
      | _ -> ())
    os;
  (* audit_crash *)
  let reports = List.filter_map (function Audit r -> Some r | _ -> None) os in
  if reports <> [] then begin
    set "audit.trials" (fi (List.fold_left (fun acc r -> acc + 1 + r.Campaign.boundaries_tested) 0 reports));
    set "audit.persists" (fi (List.fold_left (fun acc r -> acc + r.Campaign.persists) 0 reports))
  end

(* == Layer probes ====================================================== *)

(* Each probe times one layer's public entry points in isolation, on fixed
   sizes and seeds, and returns its metrics.  They run in every traced run
   so every workload reports every per-layer metric. *)

let line sys = Allocator.alloc_line (S.allocator sys) ~line_bytes:64
let probe_seed = serve_cfg.Engine.seed

(* The platform each workload's systems are built on, for the
   core.system probes. *)
let workload_platform w =
  if w = ds then Params.with_cores Params.boom_default ds_size.Ds_bench.threads
  else if w = serve then Params.boom_default
  else C.tiny ~cores:1 ()

let median_of n f = median (List.init n (fun _ -> f ()))

let probes ~workload =
  let hit_ns = ref 0. in
  let serve_arrival cfg ~rate =
    let draw, t_draw =
      timed (fun () ->
        Workload.draw cfg.Engine.workload ~key_range:cfg.Engine.key_range
          ~update_pct:cfg.Engine.update_pct ~seed:(cfg.Engine.seed + 2))
    in
    let w0 = Gc.minor_words () in
    let (_ : Arrival.request array), t_sched =
      timed (fun () ->
        Arrival.schedule ~process:cfg.Engine.process ~draw ~rate ~clients:cfg.Engine.clients
          ~requests:cfg.Engine.requests ~key_range:cfg.Engine.key_range
          ~update_pct:cfg.Engine.update_pct ~seed:(cfg.Engine.seed + 1) ())
    in
    t_draw, t_sched, Gc.minor_words () -. w0
  in
  [
    ( "l1.dcache load hit",
      fun () ->
        let sys = S.create (C.platform ~cores:1 ()) in
        let a = line sys in
        S.store sys ~core:0 a 1;
        let ns, words = per_call 200_000 (fun _ -> ignore (S.load sys ~core:0 a)) in
        hit_ns := ns;
        [ "l1.dcache.hit_ns", ns; "l1.dcache.hit_words", words ] );
    ( "core.thread two-task load hit",
      fun () ->
        let sys = S.create (C.platform ~cores:1 ()) in
        let a = line sys and b = line sys in
        S.store sys ~core:0 a 1;
        S.store sys ~core:0 b 1;
        let n = 50_000 in
        let task addr =
          { T.core = 0; body = (fun () -> for _ = 1 to n do ignore (T.load addr) done) }
        in
        let (_ : int), dt = timed (fun () -> T.run sys [ task a; task b ]) in
        [ "core.thread.switch_ns", (dt *. 1e9 /. fi (2 * n)) -. !hit_ns ] );
    ( "l1.flush_unit store+clean+fence",
      fun () ->
        let sys = S.create (C.platform ~cores:1 ~skip_it:true ()) in
        let a = line sys in
        let ns, _ =
          per_call 20_000 (fun i ->
            S.store sys ~core:0 a i;
            S.clean sys ~core:0 a;
            S.fence sys ~core:0)
        in
        [ "l1.flush_unit.cbo_wb_ns", ns ] );
    ( "l1.flush_unit skip drop",
      fun () ->
        let sys = S.create (C.platform ~cores:1 ~skip_it:true ()) in
        let a = line sys in
        S.store sys ~core:0 a 1;
        S.clean sys ~core:0 a;
        S.fence sys ~core:0;
        let ns, _ = per_call 100_000 (fun _ -> S.clean sys ~core:0 a) in
        S.fence sys ~core:0;
        [ "l1.flush_unit.skip_drop_ns", ns ] );
    ( "l2 load miss path (128 KiB)",
      fun () ->
        let sys = S.create (C.platform ~cores:1 ()) in
        let lines = 128 * 1024 / 64 in
        let base = Allocator.alloc (S.allocator sys) ~align:64 (lines * 64) in
        let load i = ignore (S.load sys ~core:0 (base + (i mod lines * 64))) in
        for i = 0 to lines - 1 do
          load i
        done;
        let ns, _ = per_call (4 * lines) load in
        [ "l2.miss_path_ns", ns ] );
    ( "mem.dram load miss path (4 MiB)",
      fun () ->
        let sys = S.create (C.platform ~cores:1 ()) in
        let lines = 4 * 1024 * 1024 / 64 in
        let base = Allocator.alloc (S.allocator sys) ~align:64 (lines * 64) in
        let load i = ignore (S.load sys ~core:0 (base + (i mod lines * 64))) in
        for i = 0 to lines - 1 do
          load i
        done;
        let ns, _ = per_call lines load in
        [ "mem.dram.miss_path_ns", ns ] );
    ( "serve.batcher commit (8 lines)",
      fun () ->
        let sys = S.create (C.platform ~cores:1 ~skip_it:true ()) in
        let b = Batcher.create ~strategy:(Strategy.skipit_hw ()) ~mode:Pctx.Automatic () in
        let p = Batcher.pctx b in
        let base = Allocator.alloc (S.allocator sys) ~align:64 (8 * 64) in
        let epochs = 2000 in
        let spent = ref 0. in
        let body () =
          for e = 1 to epochs do
            for j = 0 to 7 do
              Pctx.write p (base + (j * 64)) e
            done;
            let (), dt = timed (fun () -> Batcher.commit b) in
            spent := !spent +. dt
          done
        in
        ignore (T.run sys [ { T.core = 0; body } ] : int);
        [ "serve.batcher.commit_ns", !spent *. 1e9 /. fi epochs ] );
    ( "serve.arrival schedule + Engine.run (rate 8)",
      fun () ->
        let cfg = { serve_cfg with Engine.seed = probe_seed } in
        let reps = List.init 3 (fun _ -> serve_arrival cfg ~rate:serve_latency_rate) in
        let t_engine =
          median_of 3 (fun () -> snd (timed (fun () -> Engine.run cfg ~rate:serve_latency_rate)))
        in
        let med f = median (List.map f reps) in
        let n = fi cfg.Engine.requests in
        [
          "serve.arrival.ns_per_req", med (fun (_, s, _) -> s) *. 1e9 /. n;
          "serve.arrival.words_per_req", med (fun (_, _, w) -> w) /. n;
          "serve.workload.cdf_build_us", med (fun (d, _, _) -> d) *. 1e6;
          "serve.arrival.share", ratio (med (fun (d, s, _) -> d +. s)) t_engine;
        ] );
    ( "fleet.arrival schedule + Fleet.run (rate 16)",
      fun () ->
        let cfg = { fleet_cfg with Fleet.requests = 10_000; seed = probe_seed } in
        let t_arrival =
          median_of 3 (fun () ->
            let as_serve =
              {
                serve_cfg with
                Engine.workload = cfg.Fleet.workload;
                clients = cfg.Fleet.clients;
                requests = cfg.Fleet.requests;
                key_range = cfg.Fleet.key_range;
                update_pct = cfg.Fleet.update_pct;
                seed = cfg.Fleet.seed;
                process = cfg.Fleet.process;
              }
            in
            let d, s, _ = serve_arrival as_serve ~rate:fleet_rate in
            d +. s)
        in
        let t_fleet = median_of 3 (fun () -> snd (timed (fun () -> Fleet.run cfg ~rate:fleet_rate))) in
        [ "fleet.arrival.share", ratio t_arrival t_fleet ] );
    ( "obs telemetry on/off (serve rate 8)",
      fun () ->
        let cfg = { serve_cfg with Engine.requests = 4000; seed = probe_seed } in
        let run telemetry =
          snd (timed (fun () -> Engine.run { cfg with Engine.telemetry } ~rate:serve_latency_rate))
        in
        let pairs = List.init 3 (fun _ -> run false, run true) in
        [
          ( "obs.telemetry_overhead",
            ratio (median (List.map snd pairs)) (median (List.map fst pairs)) -. 1. );
        ] );
    ( "core.system create",
      fun () ->
        let params = workload_platform workload in
        let ns, words = per_call 1000 (fun _ -> ignore (S.create params)) in
        [ "core.system.create_us", ns /. 1000.; "core.system.create_words", words ] );
    ( "fleet.ring replicas",
      fun () ->
        let r = Ring.create ~shards:fleet_cfg.Fleet.shards ~vnodes:fleet_cfg.Fleet.vnodes ~seed:probe_seed in
        let k = fleet_cfg.Fleet.replicas and range = fleet_cfg.Fleet.key_range in
        let ns, _ = per_call 200_000 (fun i -> ignore (Ring.replicas r ~key:(1 + (i mod range)) ~k)) in
        [ "fleet.ring.replicas_ns", ns ] );
    ( "audit invariant check_all",
      fun () ->
        let sys = S.create (C.tiny ~cores:1 ()) in
        let p = Pctx.make (Strategy.plain ()) Pctx.Automatic in
        let body () =
          let h = Set_ops.create Set_ops.Hash_set p (S.allocator sys) in
          for k = 1 to 40 do
            ignore (h.Set_ops.insert p k)
          done
        in
        ignore (T.run sys [ { T.core = 0; body } ] : int);
        let ns, _ = per_call 500 (fun _ -> ignore (Invariant.check_all ~quiesced:true sys)) in
        [ "audit.invariant.check_all_us", ns /. 1000. ] );
    ( "audit auditor on/off (uncrashed trials)",
      fun () ->
        (* A period far beyond any trial's clock never fires (max_int would
           overflow the hook's next-due cycle). *)
        let specs = Campaign.default_specs ~seed:probe_seed ~n_ops:audit_ops ~fault:Campaign.No_fault in
        let pass ?audit_every () =
          snd
            (timed (fun () ->
               for _ = 1 to 5 do
                 List.iter (fun s -> ignore (Campaign.run_trial ?audit_every s ~crash_at:None)) specs
               done))
        in
        let pairs = List.init 3 (fun _ -> pass (), pass ~audit_every:(1 lsl 50) ()) in
        let on = median (List.map fst pairs) and off = median (List.map snd pairs) in
        [ "audit.auditor_share", ratio (on -. off) on ] );
    ( "sim.resource acquire",
      fun () ->
        let r = Resource.create ~count:8 "probe" in
        let ns, _ = per_call 1_000_000 (fun i -> ignore (Resource.acquire_finish r ~now:i ~busy:3)) in
        [ "sim.resource.acquire_ns", ns ] );
    ( "sim.int_tbl replace+find",
      fun () ->
        let t = Int_tbl.create ~size_hint:256 () in
        let ns, _ =
          per_call 1_000_000 (fun i ->
            let key = i land 255 * 64 in
            Int_tbl.replace t key i;
            ignore (Int_tbl.find_default t key ~default:0))
        in
        [ "sim.int_tbl.ns", ns ] );
  ]

(* == Main ============================================================== *)

let trace_capacity = 1 lsl 20
let trial_seed ~seed t = (seed * 1000) + t
let min_trials = 5

let list_metrics () =
  let metric m =
    json_obj
      ([
         "name", json_string m.name;
         "unit", json_string m.unit;
         "better", json_string (if m.higher then "higher" else "lower");
         ( "role",
           json_string (match m.role with Host -> "host" | Sim -> "sim" | Result _ -> "result") );
         "moves", json_list json_string m.moves;
         "steady", json_list json_string m.steady;
       ]
      @ match m.role with Result w -> [ "workload", json_string w ] | Host | Sim -> [])
  in
  let workload (w : workload) = json_obj [ "name", json_string w.name; "why", json_string w.why ] in
  print_endline
    (json_obj [ "workloads", json_list workload workloads; "per_layer", json_list metric metrics ])

(* Relative to the checkout's root, where run.py starts the child. *)
let out_dir = "perfbench/out"

let measure (w : workload) ~seed ~seconds ~traced ~setup_only =
  (* Set-up: everything before the first trial. *)
  let plan = w.calls ~traced:false ~seed:(trial_seed ~seed 1) in
  print_endline "ready";
  if setup_only then exit 0;
  (* Trial 1 repeats the warm-up's inputs, so the pair checks determinism;
     later trials take fresh seeds, so no trial can reuse an earlier one's
     results. *)
  let before = host_speed () in
  let warm, before = run_trial ~before plan in
  let t_start = now () in
  let first, before = run_trial ~before plan in
  let rss = ref 0. in
  let rec loop i before acc =
    (* Peak memory after a fixed amount of work: the heap keeps growing
       with the number of trials, which the time budget would tie to the
       host's speed. *)
    if i = min_trials + 1 then rss := peak_rss_mb ();
    if i > min_trials && now () -. t_start >= seconds then List.rev acc, before
    else
      let t, after = run_trial ~before (w.calls ~traced:false ~seed:(trial_seed ~seed i)) in
      loop (i + 1) after (t :: acc)
  in
  let timed_trials, before = loop 2 before [ first ] in
  let digest = trial_digest first in
  let failures = ref (List.concat_map trial_failures (warm :: timed_trials)) in
  let checks = ref [ "deterministic", trial_digest warm = digest ] in
  let attempted = ref (List.fold_left (fun acc t -> acc + List.length t.results) 0 (warm :: timed_trials)) in
  let trial_s = trial_seconds scaled_calls timed_trials in
  let wall_s = trial_seconds (fun t -> t.call_walls) timed_trials in
  let layers =
    if not traced then []
    else begin
      let values = Hashtbl.create 128 in
      List.iter (fun m -> Hashtbl.replace values m.name 0.) metrics;
      let set name v =
        if not (Hashtbl.mem values name) then failwith ("perf: metric missing from table: " ^ name);
        Hashtbl.replace values name v
      in
      let lat = List.map (fun cls -> cls, Sample.create ()) traced_classes in
      let dropped = ref 0 in
      (* Each simulation gets a fresh reqs-only sink; its request spans are
         folded into the per-class samples before the next call. *)
      let wrap c f =
        with_span ~trial:1 c.label (fun () ->
          let tr = Trace.start ~capacity:trace_capacity ~reqs_only:true () in
          let r = Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) f in
          dropped := !dropped + Trace.dropped tr;
          let l = Latency.of_trace tr in
          List.iter (fun (cls, s) -> Array.iter (Sample.add s) (Sample.values (Latency.sample l cls))) lat;
          r)
      in
      let traced_trial, _ =
        with_span ~trial:1 ("trial " ^ w.name) (fun () ->
          run_trial ~wrap ~wrap_speed:(with_span ~trial:1 speed_span) ~before
            (w.calls ~traced:true ~seed:(trial_seed ~seed 1)))
      in
      attempted := !attempted + List.length traced_trial.results;
      failures := !failures @ trial_failures traced_trial;
      checks :=
        !checks @ [ "traced_digest_matches", trial_digest traced_trial = digest; "trace_dropped_zero", !dropped = 0 ];
      sim_metrics ~set traced_trial lat;
      with_span ~trial:0 "probes" (fun () ->
        List.iter
          (fun (name, probe) -> List.iter (fun (k, v) -> set k v) (with_span ~trial:0 name probe))
          (probes ~workload:w.name));
      let call_ms =
        List.filter_map
          (fun (s, _) ->
            if s.trial = 1 && s.parent >= 0 && s.sname <> speed_span then Some ((s.t1 -. s.t0) *. 1000.)
            else None)
          (self_times !spans)
      in
      set "harness.call_ms_max" (List.fold_left Float.max 0. call_ms);
      let creates = List.fold_left (fun acc o -> acc + outcome_systems o) 0 (outcomes traced_trial) in
      set "core.system.creates" (fi creates);
      set "core.system.create_share"
        (ratio (fi creates *. Hashtbl.find values "core.system.create_us" /. 1e6) wall_s);
      set "host.minor_words_per_op"
        (median (List.map (fun t -> ratio t.words (fi (trial_ops t))) timed_trials));
      set "sim.cycles_per_ms"
        (median (List.map (fun t -> ratio (fi (trial_cycles t)) (scaled_wall t *. 1000.)) timed_trials));
      set "obs.trace_overhead" (ratio (scaled_wall traced_trial) trial_s -. 1.);
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      write_spans (Filename.concat out_dir ("trace_" ^ w.name ^ ".json"));
      List.map (fun m -> m.name, Hashtbl.find values m.name) metrics
    end
  in
  let trial_json t =
    json_obj
      [
        "trial_s", json_float (scaled_wall t);
        "wall_s", json_float (wall t);
        "ops", string_of_int (trial_ops t);
        "cycles", string_of_int (trial_cycles t);
        "minor_words", json_float t.words;
        "calls", json_list json_float t.call_walls;
        "speeds", json_list json_float t.call_speeds;
      ]
  in
  print_endline
    (json_obj
       [
         "sim_digest", json_string digest;
         "trial_s", json_float trial_s;
         "wall_s", json_float wall_s;
         "speed", json_float (median (List.map (fun t -> scaled_wall t /. wall t) timed_trials));
         "sim_ops_per_s", json_float (median (List.map (fun t -> fi (trial_ops t)) timed_trials) /. trial_s);
         "trials", json_list trial_json timed_trials;
         "peak_rss_mb", json_float !rss;
         "attempted", string_of_int !attempted;
         "failures", json_list json_string !failures;
         "checks", json_obj (List.map (fun (k, ok) -> k, if ok then "true" else "false") !checks);
         "layers", json_obj (List.map (fun (k, v) -> k, json_float v) layers);
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let traced = ref false and setup_only = ref false and list = ref false and calibrate = ref false in
  let usage = "perf.exe --workload NAME --seed N --seconds S [--traced] [--setup-only]" in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S time budget for the timed trials";
      "--traced", Arg.Set traced, " add the traced trial and the layer probes";
      "--setup-only", Arg.Set setup_only, " exit after set-up (prints ready)";
      "--list-metrics", Arg.Set list, " print the workload and per-layer metric table as JSON";
      "--calibrate", Arg.Set calibrate, " print this host's speed relative to the reference host";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !list then list_metrics ()
  else if !calibrate then print_host_speed ()
  else
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("perf: unknown workload " ^ !workload);
      exit 2
    | Some w ->
      measure w ~seed:!seed ~seconds:!seconds ~traced:!traced ~setup_only:!setup_only
