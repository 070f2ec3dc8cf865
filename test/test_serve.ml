(* The open-loop serving engine: arrival-schedule determinism, the
   group-commit batcher's ordering contract, conservation of requests
   through admission + shedding, and byte-identical sweeps at any pool
   width. *)

module Arrival = Skipit_serve.Arrival
module Batcher = Skipit_serve.Batcher
module Engine = Skipit_serve.Engine
module Report = Skipit_serve.Report
module Strategy = Skipit_persist.Strategy
module Pctx = Skipit_persist.Pctx
module Pool = Skipit_par.Pool
module Rng = Skipit_sim.Rng

(* == Arrival schedules ================================================== *)

let schedule ?(process = Arrival.Poisson) ?(seed = 42) ?(rate = 8.) () =
  Arrival.schedule ~process
    ~draw:(Arrival.uniform_draw ~key_range:256 ~update_pct:20)
    ~rate ~clients:8 ~requests:400 ~key_range:256 ~update_pct:20 ~seed ()

let req_tuple (r : Arrival.request) =
  (r.Arrival.arrival, r.Arrival.client, r.Arrival.seq, Arrival.op_name r.Arrival.op, r.Arrival.key)

let test_schedule_deterministic () =
  List.iter
    (fun process ->
      let a = schedule ~process () and b = schedule ~process () in
      Alcotest.(check (list (triple int int int)))
        (Arrival.process_name process ^ ": same seed, same schedule")
        (Array.to_list (Array.map (fun (r : Arrival.request) -> r.arrival, r.client, r.key) a))
        (Array.to_list (Array.map (fun (r : Arrival.request) -> r.arrival, r.client, r.key) b));
      Alcotest.(check bool)
        (Arrival.process_name process ^ ": different seed, different schedule")
        false
        (Array.for_all2 (fun x y -> req_tuple x = req_tuple y) a (schedule ~process ~seed:43 ())))
    [ Arrival.Poisson; Arrival.default_bursty ]

let test_schedule_shape () =
  let s = schedule () in
  Alcotest.(check int) "requested length" 400 (Array.length s);
  Array.iteri
    (fun i (r : Arrival.request) ->
      if i > 0 then
        Alcotest.(check bool) "arrivals nondecreasing" true
          (r.arrival >= s.(i - 1).Arrival.arrival);
      Alcotest.(check bool) "key in range" true (r.key >= 1 && r.key <= 256))
    s;
  (* Per-client sequence numbers count that client's emissions in order. *)
  let next_seq = Array.make 8 0 in
  Array.iter
    (fun (r : Arrival.request) ->
      Alcotest.(check int)
        (Printf.sprintf "client %d seq" r.client)
        next_seq.(r.client) r.seq;
      next_seq.(r.client) <- r.seq + 1)
    s

let test_bursty_respects_phases () =
  let on = 500 and off = 1500 in
  let s = schedule ~process:(Arrival.Bursty { on; off }) () in
  Array.iter
    (fun (r : Arrival.request) ->
      Alcotest.(check bool)
        (Printf.sprintf "arrival %d inside an on phase" r.arrival)
        true
        (r.arrival mod (on + off) < on))
    s

let test_process_names_round_trip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Arrival.process_name p ^ " round-trips")
        true
        (Arrival.process_of_name (Arrival.process_name p) = Some p))
    [
      Arrival.Poisson;
      Arrival.default_bursty;
      Arrival.Bursty { on = 17; off = 3 };
      Arrival.Degraded { windows = [ (100, 300) ]; base = Arrival.Poisson };
      Arrival.Degraded
        { windows = [ (10, 20); (50, 90) ]; base = Arrival.Bursty { on = 17; off = 3 } };
    ];
  Alcotest.(check bool) "bad spec rejected" true
    (Arrival.process_of_name "bursty:0/5" = None
    && Arrival.process_of_name "sawtooth" = None
    && Arrival.process_of_name "degraded:30-20:poisson" = None
    && Arrival.process_of_name "degraded:10-20,15-30:poisson" = None
    && Arrival.process_of_name "degraded:10-20:degraded:30-40:poisson" = None)

let test_degraded_windows_are_quiet () =
  (* No arrival lands inside a fault window, and outside the windows the
     schedule is exactly the base process (bit-identical seeding): erasing
     the windows from a degraded schedule's arrivals leaves a prefix of the
     base schedule's arrival sequence restricted to the same gaps. *)
  let windows = [ (1000, 3000); (5000, 6000) ] in
  let base = Arrival.Bursty { on = 500; off = 700 } in
  let s = schedule ~process:(Arrival.Degraded { windows; base }) () in
  Array.iter
    (fun (r : Arrival.request) ->
      Alcotest.(check bool)
        (Printf.sprintf "arrival %d outside every fault window" r.arrival)
        true
        (not (List.exists (fun (a, b) -> r.arrival >= a && r.arrival < b) windows));
      Alcotest.(check bool)
        (Printf.sprintf "arrival %d still respects the base's on phases" r.arrival)
        true
        (r.arrival mod 1200 < 500))
    s

let test_aggregate_path_matches_contract () =
  (* A fleet-sized population on the one merged Bernoulli stream keeps the
     contract: sorted arrivals, per-client seqs, keys in range,
     deterministic in the seed. *)
  let clients = 1024 in
  let make seed =
    Arrival.schedule ~process:Arrival.Poisson
      ~draw:(Arrival.uniform_draw ~key_range:256 ~update_pct:20)
      ~rate:16. ~clients ~requests:600 ~key_range:256 ~update_pct:20 ~seed ()
  in
  let s = make 42 in
  Alcotest.(check int) "requested length" 600 (Array.length s);
  let next_seq = Hashtbl.create 64 in
  Array.iteri
    (fun i (r : Arrival.request) ->
      if i > 0 then
        Alcotest.(check bool) "arrivals nondecreasing" true
          (r.arrival >= s.(i - 1).Arrival.arrival);
      Alcotest.(check bool) "client in range" true (r.client >= 0 && r.client < clients);
      Alcotest.(check bool) "key in range" true (r.key >= 1 && r.key <= 256);
      let expect = Option.value ~default:0 (Hashtbl.find_opt next_seq r.client) in
      Alcotest.(check int) "per-client seq" expect r.seq;
      Hashtbl.replace next_seq r.client (r.seq + 1))
    s;
  Alcotest.(check bool) "same seed, same schedule" true
    (Array.for_all2 (fun a b -> req_tuple a = req_tuple b) s (make 42));
  Alcotest.(check bool) "different seed, different schedule" false
    (Array.for_all2 (fun a b -> req_tuple a = req_tuple b) s (make 43))

(* == The gap walk against its per-cycle reference ====================== *)

(* The cycle-by-cycle walk [Arrival] drew before it drew whole runs: one
   [Rng.chance] per active cycle, at most cap + 1 trials.  The run-length
   walk must reproduce it draw for draw. *)
let reference_walk process rng p from =
  let p_at t =
    match Arrival.mult_milli_at process t with
    | 1000 -> p
    | m -> p *. (float_of_int m /. 1000.)
  in
  let cap = 10_000_000 in
  let t = ref (Arrival.skip_gaps process from) in
  let trials = ref 0 in
  while (not (Rng.chance rng (p_at !t))) && !trials < cap do
    incr trials;
    t := Arrival.skip_gaps process (!t + 1)
  done;
  !t

let rec reference_boost = function
  | Arrival.Poisson -> 1.
  | Arrival.Bursty { on; off } -> float_of_int (on + off) /. float_of_int on
  | Arrival.Phased { phases; base } ->
    let period = List.fold_left (fun a (l, _) -> a + l) 0 phases in
    let weight = List.fold_left (fun a (l, m) -> a + (l * m)) 0 phases in
    float_of_int period *. 1000. /. float_of_int weight *. reference_boost base
  | Arrival.Degraded { base; _ } -> reference_boost base

(* Fingerprints the schedule stream's state at each arrival (without
   advancing it) into the key, so equal schedules mean equal rng states
   after every walk. *)
let fingerprint_draw : Arrival.draw =
  let uniform = Arrival.uniform_draw ~key_range:256 ~update_pct:50 in
  fun rng ~at ->
    let fp = Int64.to_int (Rng.next_int64 (Rng.copy rng)) land 0xFFFFFF in
    let op, key = uniform rng ~at in
    (op, key + (256 * fp))

(* [Arrival.schedule] rebuilt over [reference_walk]. *)
let reference_schedule ~process ~rate ~clients ~requests ~seed =
  let draw = fingerprint_draw in
  let p = Float.min 1. (rate /. 1000. *. reference_boost process) in
  let rng = Rng.create ~seed in
  let counts = Array.make clients 0 in
  let clock = ref (-1) in
  Array.init requests (fun _ ->
    let t = reference_walk process rng p (!clock + 1) in
    clock := t;
    let client = Rng.int rng clients in
    let op, key = draw rng ~at:t in
    let seq = counts.(client) in
    counts.(client) <- seq + 1;
    (t, client, seq, Arrival.op_name op, key))

(* Random process trees: poisson or bursty, optionally under diurnal
   phases, optionally under fault windows.  Short on/off phases, segments
   and windows put many run boundaries inside each walk. *)
let gen_process =
  let open QCheck.Gen in
  let base =
    oneof
      [
        return Arrival.Poisson;
        map2 (fun on off -> Arrival.Bursty { on; off }) (int_range 1 50) (int_range 0 100);
      ]
  in
  let mult = oneof [ return 0; int_range 500 3000 ] in
  let phases =
    map2 (fun live rest -> live :: rest)
      (pair (int_range 1 60) (int_range 500 3000))
      (list_size (int_range 0 3) (pair (int_range 1 60) mult))
  in
  let windows =
    map
      (fun spans ->
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) (gap, len) ->
                  let s = at + gap in
                  (s + len, (s, s + len) :: acc))
                (0, []) spans)))
      (list_size (int_range 1 4) (pair (int_range 0 300) (int_range 1 300)))
  in
  base >>= fun b ->
  oneof [ return b; map (fun phases -> Arrival.Phased { phases; base = b }) phases ]
  >>= fun inner ->
  oneof [ return inner; map (fun windows -> Arrival.Degraded { windows; base = inner }) windows ]

(* Log-uniform per-trial probability from 1e-6 up past 1. *)
let gen_p = QCheck.Gen.map (fun e -> 10. ** e) (QCheck.Gen.float_range (-6.) 0.3)

let prop_walk_matches_reference =
  QCheck.Test.make ~name:"next_arrival = per-cycle reference walk, draw for draw" ~count:120
    (QCheck.make
       ~print:(fun (process, p, from, seed) ->
         Printf.sprintf "%s p=%h from=%d seed=%d" (Arrival.process_name process) p from seed)
       QCheck.Gen.(quad gen_process gen_p (int_range 0 2000) (int_bound 100_000)))
  @@ fun (process, p, from, seed) ->
  let a = Rng.create ~seed and b = Rng.create ~seed in
  let rec walks from k =
    k = 0
    ||
    let x = Arrival.next_arrival process a ~p ~from in
    let y = reference_walk process b p from in
    x = y && Rng.next_int64 (Rng.copy a) = Rng.next_int64 (Rng.copy b) && walks (x + 1) (k - 1)
  in
  walks from 3

let prop_schedule_matches_reference =
  QCheck.Test.make ~name:"schedule = per-cycle reference schedule, request for request"
    ~count:120
    (QCheck.make
       ~print:(fun (process, (clients, requests), p, seed) ->
         Printf.sprintf "%s clients=%d requests=%d p=%h seed=%d"
           (Arrival.process_name process) clients requests p seed)
       QCheck.Gen.(
         quad gen_process
           (pair (int_range 1 300) (int_range 1 40))
           (float_range 0. 1.) (int_bound 100_000)))
  @@ fun (process, (clients, requests), u, seed) ->
  (* Keep the reference's trial count near 2M: the smallest p scales with
     the number of walks, one per request. *)
  let lo = Float.max 1e-6 (float_of_int requests /. 2e6) in
  let p = 10. ** (log10 lo +. (u *. (0.3 -. log10 lo))) in
  let rate = p *. 1000. /. reference_boost process in
  let got =
    Arrival.schedule ~process ~draw:fingerprint_draw ~rate ~clients ~requests ~key_range:256
      ~update_pct:50 ~seed ()
  in
  Array.map req_tuple got = reference_schedule ~process ~rate ~clients ~requests ~seed

let test_walk_trial_cap () =
  (* p = 0 never succeeds: both walks spend exactly cap + 1 trials and stop
     on the last cycle tried.  Runs of 3 make the cap land mid-run. *)
  List.iter
    (fun process ->
      let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
      let x = Arrival.next_arrival process a ~p:0. ~from:7 in
      let y = reference_walk process b 0. 7 in
      Alcotest.(check int) (Arrival.process_name process ^ ": capped cycle") y x;
      Alcotest.(check int64)
        (Arrival.process_name process ^ ": same draws consumed")
        (Rng.next_int64 b) (Rng.next_int64 a))
    [ Arrival.Poisson; Arrival.Bursty { on = 3; off = 2 } ]

let test_schedule_allocation_budget () =
  (* The serve benchmark's schedule: Poisson, 16 clients, rate 8, 10k
     requests, zipf:0.99 keys with churn.  The walk draws ~125 trials per
     request; any per-trial allocation shows up as thousands of words. *)
  let requests = 10_000 in
  let draw =
    Skipit_serve.Workload.draw
      {
        Skipit_serve.Workload.keys =
          Skipit_serve.Workload.Zipf
            { theta_milli = Skipit_serve.Workload.default_zipf_theta_milli };
        churn = Some 4000;
      }
      ~key_range:1024 ~update_pct:50 ~seed:13
  in
  let before = Gc.minor_words () in
  let s =
    Arrival.schedule ~process:Arrival.Poisson ~draw ~rate:8. ~clients:16 ~requests
      ~key_range:1024 ~update_pct:50 ~seed:12 ()
  in
  let per_req = (Gc.minor_words () -. before) /. float_of_int requests in
  Alcotest.(check int) "full schedule" requests (Array.length s);
  Alcotest.(check bool)
    (Printf.sprintf "<= 64 minor words per request (saw %.1f)" per_req)
    true (per_req <= 64.)

(* == Batcher ordering contract ========================================== *)

(* A probe strategy that only logs: operations via [write], persist points
   and fences via the batcher's replay.  No simulated memory is touched, so
   this runs outside any Thread task. *)
let probe log =
  {
    Strategy.name = "probe";
    field_stride = 8;
    read = (fun _ -> 0);
    write = (fun addr _ -> log := ("op", addr) :: !log);
    cas =
      (fun addr ~expected:_ ~desired:_ ->
        log := ("op", addr) :: !log;
        true);
    persist_store = (fun addr -> log := ("persist", addr) :: !log);
    persist_load = (fun addr -> log := ("persist", addr) :: !log);
    fence = (fun () -> log := ("fence", -1) :: !log);
    persistent = true;
    deferrable = true;
  }

let test_batcher_defers_and_orders () =
  let log = ref [] in
  let b = Batcher.create ~strategy:(probe log) ~mode:Pctx.Automatic () in
  Alcotest.(check bool) "grouping active" true (Batcher.grouping b);
  let pctx = Batcher.pctx b in
  (* Two requests: ops on lines 64 and 128, plus a duplicate store to 64. *)
  Pctx.write pctx 64 1;
  Pctx.commit pctx ~updated:true;
  Pctx.write pctx 128 2;
  Pctx.write pctx 70 3;  (* same line as 64 *)
  Pctx.commit pctx ~updated:true;
  let before = List.rev !log in
  Alcotest.(check bool) "no persist reaches the base strategy before commit" true
    (List.for_all (fun (e, _) -> e = "op") before);
  Alcotest.(check int) "distinct lines pending" 2 (Batcher.pending b);
  Batcher.commit b;
  let events = List.rev !log in
  let ops, tail = List.partition (fun (e, _) -> e = "op") events in
  Alcotest.(check int) "three ops" 3 (List.length ops);
  Alcotest.(check (list (pair string int)))
    "commit replays one persist per distinct line, first-capture order, then one fence"
    [ "persist", 64; "persist", 128; "fence", -1 ]
    tail;
  (* Every op precedes the whole persist replay: the epoch closes after the
     last member operation, so no request's persist is reordered before its
     own accesses. *)
  let first_persist =
    List.mapi (fun i (e, _) -> i, e) events
    |> List.find (fun (_, e) -> e = "persist")
    |> fst
  in
  List.iteri
    (fun i (e, _) -> if e = "op" then Alcotest.(check bool) "op before persists" true (i < first_persist))
    events;
  Batcher.commit b;
  Alcotest.(check int) "empty commit is a no-op" (3 + 2 + 1) (List.length !log)

let test_batcher_non_deferrable_passthrough () =
  let log = ref [] in
  let strategy = { (probe log) with Strategy.deferrable = false } in
  let b = Batcher.create ~strategy ~mode:Pctx.Automatic () in
  let pctx = Batcher.pctx b in
  Pctx.write pctx 64 1;
  Pctx.commit pctx ~updated:true;
  Alcotest.(check (list (pair string int)))
    "persist point forwarded immediately, fence still deferred"
    [ "op", 64; "persist", 64 ]
    (List.rev !log);
  Alcotest.(check int) "nothing pending (only the fence)" 0 (Batcher.pending b);
  Batcher.commit b;
  Alcotest.(check (list (pair string int)))
    "epoch fence issued at commit"
    [ "op", 64; "persist", 64; "fence", -1 ]
    (List.rev !log)

let test_batcher_manual_and_ungrouped_fall_back () =
  List.iter
    (fun (label, b) ->
      let log_len_before = 0 in
      ignore log_len_before;
      Alcotest.(check bool) (label ^ ": grouping off") false (Batcher.grouping b))
    [
      "manual mode", Batcher.create ~strategy:(probe (ref [])) ~mode:Pctx.Manual ();
      "group:false", Batcher.create ~group:false ~strategy:(probe (ref [])) ~mode:Pctx.Automatic ();
      ( "non-persistent",
        Batcher.create
          ~strategy:{ (probe (ref [])) with Strategy.persistent = false }
          ~mode:Pctx.Automatic () );
    ];
  (* Per-op semantics under fallback: persists and fences pass straight
     through and commit is a no-op. *)
  let log = ref [] in
  let b = Batcher.create ~strategy:(probe log) ~mode:Pctx.Manual () in
  let pctx = Batcher.pctx b in
  Pctx.write pctx 64 1;
  Pctx.persist pctx 64;
  Pctx.commit pctx ~updated:true;
  Batcher.commit b;
  Alcotest.(check (list (pair string int)))
    "manual mode: author-placed persist order untouched"
    [ "op", 64; "persist", 64; "fence", -1 ]
    (List.rev !log)

(* == Conservation through admission + shedding ========================== *)

let spike_cfg =
  {
    Engine.default with
    Engine.requests = 500;
    clients = 8;
    depth = 8;
    batch = 4;
    key_range = 256;
    prefill = 128;
  }

let test_spike_conservation () =
  (* Offered load far beyond saturation: the waiting room must overflow,
     yet every request is either served or shed, no admission slot leaks,
     and exactly the served requests have latencies. *)
  let p = Engine.run spike_cfg ~rate:60. in
  Alcotest.(check bool) "spike actually sheds" true (p.Engine.shed > 0);
  Alcotest.(check bool) "still serves" true (p.Engine.served > 0);
  Alcotest.(check int) "served + shed = offered requests" p.Engine.n
    (p.Engine.served + p.Engine.shed);
  Alcotest.(check int) "no admission slots leak" 0 p.Engine.leaked;
  (match p.Engine.latency with
   | None -> Alcotest.fail "latency summary missing"
   | Some s ->
     Alcotest.(check int) "one latency sample per served request" p.Engine.served
       s.Skipit_obs.Latency.count;
     Alcotest.(check bool) "positive latencies" true (s.Skipit_obs.Latency.p50 > 0.));
  (* A gentle load on the same config sheds nothing. *)
  let q = Engine.run spike_cfg ~rate:2. in
  Alcotest.(check int) "gentle load sheds nothing" 0 q.Engine.shed;
  Alcotest.(check int) "gentle load serves everything" q.Engine.n q.Engine.served

let test_group_commit_beats_per_op () =
  (* The point of the batcher: near saturation, epochs spend fewer cycles
     on persists, so group commit serves more than per-op persists. *)
  let rate = 16. in
  let cfg = { Engine.default with Engine.requests = 600 } in
  let b8 = Engine.run cfg ~rate in
  let b1 = Engine.run { cfg with Engine.batch = 1 } ~rate in
  Alcotest.(check bool)
    (Printf.sprintf "achieved %.2f (batch 8) > %.2f (batch 1)" b8.Engine.achieved
       b1.Engine.achieved)
    true
    (b8.Engine.achieved > b1.Engine.achieved);
  Alcotest.(check bool) "per-op run batches nothing" true (b1.Engine.epochs = 0);
  Alcotest.(check bool) "grouped run commits epochs" true (b8.Engine.epochs > 0)

(* == Telemetry: CO-correct latency and conservation ===================== *)

let test_telemetry_co_latency_and_conservation () =
  (* Saturating load: the backlog makes intended-arrival latency strictly
     dominate the dequeue-stamped latency a coordinated-omission-blind
     recorder would report. *)
  let p = Engine.run { spike_cfg with Engine.telemetry = true } ~rate:60. in
  let intended = Option.get p.Engine.latency in
  let dequeue = Option.get p.Engine.dequeue_latency in
  let module L = Skipit_obs.Latency in
  Alcotest.(check int) "same sample count" intended.L.count dequeue.L.count;
  List.iter
    (fun (name, i, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "intended %s %.1f >= dequeue %.1f" name i d)
        true (i >= d))
    [
      "mean", intended.L.mean, dequeue.L.mean;
      "p50", intended.L.p50, dequeue.L.p50;
      "p99", intended.L.p99, dequeue.L.p99;
      "p99.9", intended.L.p999, dequeue.L.p999;
      "max", intended.L.max, dequeue.L.max;
    ];
  (match p.Engine.gap with
   | None -> Alcotest.fail "gap missing"
   | Some g ->
     Alcotest.(check bool) "saturation opens a visible CO gap at p99" true
       (g.L.gap_p99 > 0.));
  (* Attribution: every served request decomposed, stage cycles summing
     exactly to its intended-arrival -> persist-complete span. *)
  Alcotest.(check int) "every served request attributed" p.Engine.served
    p.Engine.attr_requests;
  Alcotest.(check bool) "stage cycles conserve each request's span" true
    p.Engine.attr_conserved;
  Alcotest.(check int) "no off-critical-path cycles trimmed" 0 p.Engine.attr_trimmed;
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 p.Engine.attribution in
  Alcotest.(check bool) "attribution non-trivial" true (total > 0);
  Alcotest.(check bool) "saturated: admission wait dominates" true
    (List.assoc "adm_wait" p.Engine.attribution > total / 2)

let test_telemetry_leaves_simulation_untouched () =
  (* The whole point of the enabled() guards: cycles, counts and latency
     percentiles are bit-identical with telemetry on or off. *)
  let rate = 16. in
  let off = Engine.run spike_cfg ~rate in
  let on = Engine.run { spike_cfg with Engine.telemetry = true } ~rate in
  Alcotest.(check int) "served identical" off.Engine.served on.Engine.served;
  Alcotest.(check int) "shed identical" off.Engine.shed on.Engine.shed;
  Alcotest.(check int) "elapsed identical" off.Engine.elapsed on.Engine.elapsed;
  Alcotest.(check int) "flushes identical" off.Engine.flushes on.Engine.flushes;
  let s l = Option.get l.Engine.latency in
  let module L = Skipit_obs.Latency in
  Alcotest.(check (list (float 0.)))
    "latency summary identical"
    [ (s off).L.mean; (s off).L.p50; (s off).L.p99; (s off).L.p999; (s off).L.max ]
    [ (s on).L.mean; (s on).L.p50; (s on).L.p99; (s on).L.p999; (s on).L.max ];
  Alcotest.(check bool) "off-run records no attribution" true
    (off.Engine.attribution = [] && off.Engine.metrics = None)

(* == Sweep determinism under the pool =================================== *)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_open_vbox ppf 0;
  f ppf;
  Format.pp_close_box ppf ();
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_sweep_byte_identical_across_jobs () =
  let cfg = { spike_cfg with Engine.requests = 300 } in
  let rates = [ 4.; 12.; 40. ] in
  let output pool =
    let points = Engine.sweep ?pool cfg ~rates in
    render (fun ppf ->
      Report.pp_config ppf cfg;
      Report.pp_table ppf points;
      Report.pp_csv ppf points)
    ^ Report.to_json cfg points
  in
  let seq = output None in
  let par = Pool.with_pool ~jobs:4 (fun pool -> output (Some pool)) in
  Alcotest.(check bool) "serve sweep --jobs 1 vs --jobs 4 byte-identical" true
    (String.equal seq par);
  Alcotest.(check bool) "sweep output non-empty" true (String.length seq > 0)

(* == Shard: the setup serve and fleet share ============================= *)

module Shard = Skipit_serve.Shard
module Ds_bench = Skipit_workload.Ds_bench

let test_prefill_rule () =
  Alcotest.(check (array int)) "prefill 0 is empty" [||]
    (Ds_bench.prefill_keys ~key_range:1024 ~prefill:0);
  Alcotest.(check (array int)) "every (range/prefill)-th key from 1" [| 1; 5; 9; 13 |]
    (Ds_bench.prefill_keys ~key_range:16 ~prefill:4);
  Alcotest.(check int) "prefill above the range keeps every key" 16
    (Array.length (Ds_bench.prefill_keys ~key_range:16 ~prefill:64))

let shard_cfg ~prefill =
  {
    Shard.kind = Skipit_pds.Set_ops.Hash_set;
    mode = Pctx.Automatic;
    spec = Ds_bench.Skipit;
    process = Arrival.Poisson;
    workload = Skipit_serve.Workload.default;
    clients = 4;
    requests = 50;
    batch = 4;
    depth = 8;
    key_range = 64;
    update_pct = 50;
    prefill;
    seed = 5;
  }

let test_shard_create_prefills () =
  let params = Skipit_core.Config.tiny ~cores:1 () in
  let snapshot (sh : Shard.t) = sh.Shard.handle.Skipit_pds.Set_ops.snapshot sh.Shard.sys in
  Alcotest.(check (list int)) "prefill 0 builds an empty structure" []
    (snapshot (Shard.create ~params (shard_cfg ~prefill:0)));
  let keep k = k mod 3 = 0 in
  Alcotest.(check (list int)) "keep filters the prefilled keys"
    (List.filter keep (Array.to_list (Ds_bench.prefill_keys ~key_range:64 ~prefill:32)))
    (snapshot (Shard.create ~keep ~params (shard_cfg ~prefill:32)))

(* The typed flush-unit accessors count what the stats report prints. *)
let test_skip_counts_match_report () =
  let p = Engine.run { Engine.default with Engine.requests = 200; cores = 2 } ~rate:8. in
  Alcotest.(check bool) "skip hardware elided writebacks" true (p.Engine.skip_dropped > 0);
  let sh = Shard.create ~params:Skipit_cache.Params.boom_default (shard_cfg ~prefill:32) in
  let pctx = Pctx.make sh.Shard.strategy Pctx.Automatic in
  let churn () =
    for k = 1 to 64 do
      Shard.apply pctx sh.Shard.handle Arrival.Insert k;
      Shard.apply pctx sh.Shard.handle Arrival.Delete k
    done
  in
  ignore (Skipit_core.Thread.run sh.Shard.sys [ { Skipit_core.Thread.core = 0; body = churn } ]);
  let sum suffix =
    List.fold_left
      (fun acc (k, v) ->
        let n = String.length k and m = String.length suffix in
        if String.length k > 3 && String.sub k 0 3 = "fu." && n >= m
           && String.sub k (n - m) m = suffix
        then acc + v
        else acc)
      0 (Skipit_core.System.stats_report sh.Shard.sys)
  in
  let dropped, submitted = Shard.skip_counts sh.Shard.sys in
  Alcotest.(check int) "skip_dropped" (sum ".skip_dropped") dropped;
  Alcotest.(check int) "submitted" (sum ".submitted") submitted;
  Alcotest.(check bool) "flush traffic observed" true (submitted > 0)

let tests =
  ( "serve",
    [
      Alcotest.test_case "schedules are seed-deterministic" `Quick test_schedule_deterministic;
      Alcotest.test_case "schedule shape and per-client seq" `Quick test_schedule_shape;
      Alcotest.test_case "bursty arrivals stay in on phases" `Quick test_bursty_respects_phases;
      Alcotest.test_case "process names round-trip" `Quick test_process_names_round_trip;
      Alcotest.test_case "degraded windows erase load, keep seeding" `Quick
        test_degraded_windows_are_quiet;
      Alcotest.test_case "aggregate path keeps the schedule contract" `Quick
        test_aggregate_path_matches_contract;
      QCheck_alcotest.to_alcotest prop_walk_matches_reference;
      QCheck_alcotest.to_alcotest prop_schedule_matches_reference;
      Alcotest.test_case "walk keeps the trial cap" `Quick test_walk_trial_cap;
      Alcotest.test_case "schedule allocation budget" `Quick
        test_schedule_allocation_budget;
      Alcotest.test_case "batcher defers, dedups, never reorders" `Quick test_batcher_defers_and_orders;
      Alcotest.test_case "non-deferrable strategies pass through" `Quick
        test_batcher_non_deferrable_passthrough;
      Alcotest.test_case "manual / ungrouped fall back to per-op" `Quick
        test_batcher_manual_and_ungrouped_fall_back;
      Alcotest.test_case "load spike conserves requests and slots" `Quick test_spike_conservation;
      Alcotest.test_case "group commit beats per-op persists" `Quick test_group_commit_beats_per_op;
      Alcotest.test_case "CO-correct latency and conservation" `Quick
        test_telemetry_co_latency_and_conservation;
      Alcotest.test_case "telemetry leaves simulation untouched" `Quick
        test_telemetry_leaves_simulation_untouched;
      Alcotest.test_case "sweep byte-identical at any width" `Slow
        test_sweep_byte_identical_across_jobs;
      Alcotest.test_case "shared prefill rule" `Quick test_prefill_rule;
      Alcotest.test_case "shard create prefills through keep" `Quick test_shard_create_prefills;
      Alcotest.test_case "skip counters match the stats report" `Quick
        test_skip_counts_match_report;
    ] )
