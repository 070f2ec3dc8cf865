(* The sharded serving fleet: consistent-hash ring properties, healthy and
   crash-driven runs against the fleet-wide durable-linearizability oracle,
   graceful degradation when every replica of a range is down, request
   conservation at every checkpoint, byte-identical sweeps at any pool
   width under an active fault schedule, and the reproducer/shrink
   round-trip for an injected durability failure. *)

module Fleet = Skipit_fleet.Fleet
module Ring = Skipit_fleet.Ring
module Arrival = Skipit_serve.Arrival
module Pool = Skipit_par.Pool
module Ds_bench = Skipit_workload.Ds_bench
module Workload = Skipit_serve.Workload
module Ops = Skipit_pds.Set_ops

(* == Ring ============================================================== *)

let test_ring_properties () =
  let t = Ring.create ~shards:5 ~vnodes:16 ~seed:11 in
  Alcotest.(check int) "shards" 5 (Ring.shards t);
  for key = 1 to 500 do
    let r3 = Ring.replicas t ~key ~k:3 in
    Alcotest.(check int) "k distinct shards" 3 (List.length (List.sort_uniq compare r3));
    List.iter
      (fun s -> Alcotest.(check bool) "shard in range" true (s >= 0 && s < 5))
      r3;
    (* replica lists are prefix-consistent: k=1 is the head of k=3 *)
    Alcotest.(check int) "owner is primary" (Ring.owner t ~key) (List.hd r3);
    (* k capped at shard count *)
    Alcotest.(check int) "k capped" 5 (List.length (Ring.replicas t ~key ~k:9))
  done;
  (* Same parameters, same ring; placement is a pure function. *)
  let t' = Ring.create ~shards:5 ~vnodes:16 ~seed:11 in
  for key = 1 to 200 do
    Alcotest.(check (list int))
      "ring deterministic" (Ring.replicas t ~key ~k:2) (Ring.replicas t' ~key ~k:2)
  done

let test_ring_balance () =
  (* Virtual nodes keep primary ownership within a loose band — no shard
     owns almost everything or almost nothing. *)
  let shards = 4 in
  let t = Ring.create ~shards ~vnodes:64 ~seed:3 in
  let counts = Array.make shards 0 in
  let keys = 4000 in
  for key = 1 to keys do
    let o = Ring.owner t ~key in
    counts.(o) <- counts.(o) + 1
  done;
  let ideal = keys / shards in
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d ownership %d within 3x band of %d" s c ideal)
        true
        (c > ideal / 3 && c < ideal * 3))
    counts

(* The fleet's per-run table answers every key as [Ring.replicas] does:
   the keys it holds and, by the fallback, keys on either side of it. *)
let prop_replica_table =
  QCheck.Test.make ~name:"ring: replica table equals Ring.replicas" ~count:40
    QCheck.(
      quad (int_range 1 9) (int_range 1 32) (int_range 0 10) (pair (int_range 0 300) small_nat))
    (fun (shards, vnodes, k, (key_range, seed)) ->
      let t = Ring.create ~shards ~vnodes ~seed in
      let table = Ring.replica_table t ~key_range ~k in
      let rec check key =
        key > key_range + 8
        || (Ring.route table ~key = Ring.replicas t ~key ~k
            || QCheck.Test.fail_reportf "key %d: table [%s], ring [%s]" key
                 (String.concat ";" (List.map string_of_int (Ring.route table ~key)))
                 (String.concat ";" (List.map string_of_int (Ring.replicas t ~key ~k))))
           && check (key + 1)
      in
      check (-8))

(* == Healthy and crashing runs ========================================= *)

let quick_cfg =
  {
    Fleet.default with
    Fleet.clients = 512;
    requests = 600;
    key_range = 512;
    prefill = 256;
  }

let test_healthy_run () =
  let p = Fleet.run quick_cfg ~rate:16. in
  Alcotest.(check (list string)) "no violations" [] p.Fleet.violations;
  Alcotest.(check int) "all requests accounted" p.Fleet.n
    (p.Fleet.served + p.Fleet.shed);
  Alcotest.(check int) "no crashes" 0 p.Fleet.crashes;
  Alcotest.(check int) "no leaked slots" 0 p.Fleet.leaked;
  Alcotest.(check bool) "served most of the load" true
    (p.Fleet.served > (9 * p.Fleet.n) / 10);
  Alcotest.(check bool) "latency recorded" true (p.Fleet.latency <> None)

let test_kill_run_passes_oracle () =
  (* One seeded mid-run kill: the fleet must fail over, repair, replay
     hints, and still satisfy the durable-linearizability oracle — with
     every request either served or shed (zero hangs, by construction of
     the checkpoint accounting). *)
  let cfg = { quick_cfg with Fleet.faults = Fleet.Seeded 1 } in
  let p = Fleet.run cfg ~rate:16. in
  Alcotest.(check (list string)) "no violations" [] p.Fleet.violations;
  Alcotest.(check int) "one crash" 1 p.Fleet.crashes;
  Alcotest.(check bool) "crash was detected and repaired" true (p.Fleet.repairs >= 1);
  Alcotest.(check bool) "reads failed over" true (p.Fleet.failovers > 0);
  Alcotest.(check bool) "recovery work recorded" true (p.Fleet.recovery_cycles > 0);
  Alcotest.(check int) "all requests accounted" p.Fleet.n
    (p.Fleet.served + p.Fleet.shed);
  Alcotest.(check int) "no leaked slots" 0 p.Fleet.leaked;
  Alcotest.(check bool) "conservation checked at every fleet event" true
    (p.Fleet.checkpoints >= 4);
  (* every shard is live again at quiesce *)
  Array.iter
    (fun (s : Fleet.shard_stat) ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d live at quiesce" s.Fleet.s_id)
        "live" s.Fleet.s_state)
    p.Fleet.shards

(* Same-key writes in flight across a crash: a write can commit on its
   last replica after a later write to the same key executed.  The oracle
   orders acked writes by when they last executed on their replicas, the
   order every replica applied them in, so these runs verify; ordering by
   last commit reported key 383 (seed 92) and key 502 (the BST run)
   missing. *)
let test_oracle_orders_by_execution () =
  List.iter
    (fun (what, cfg) ->
      let p = Fleet.run cfg ~rate:16. in
      Alcotest.(check (list string)) what [] p.Fleet.violations)
    [
      ( "200k clients, seed 92",
        { Fleet.default with
          Fleet.clients = 200_000; requests = 10_000; faults = Fleet.Seeded 1; seed = 92 } );
      ( "bst/plain, 50:50, two kills",
        { Fleet.default with
          Fleet.kind = Ops.Bst_set;
          spec = Ds_bench.Plain;
          update_pct = 50;
          faults = Fleet.Kill [ { Fleet.at = 3000; shard = 1 }; { Fleet.at = 9000; shard = 2 } ];
        } );
    ]

(* Seed 1297 at rate 12: shard 2 crashes with an open group-commit epoch,
   and replaying a hint after the repair loops on a zeroed node.  The
   recovery bound ends the run with a fleet-hang violation naming the
   shard and the operation instead of spinning for ever. *)
let test_recovery_bound_reports_hang () =
  let cfg =
    { Fleet.default with
      Fleet.clients = 200_000; requests = 10_000; faults = Fleet.Seeded 1; seed = 1297 }
  in
  let p = Fleet.run cfg ~rate:12. in
  Alcotest.(check (list string)) "the hang, and nothing after it"
    [ "[fleet-hang] shard 2: replaying hint insert 74 ran past 10000000 cycles" ]
    p.Fleet.violations

let test_unreplicated_kill_degrades_gracefully () =
  (* replicas=1 and a kill: writes to the dead shard's ranges retry with
     backoff and are eventually shed, never parked — and the run still
     verifies (shed writes that touched a structure get crash amnesty). *)
  let cfg =
    {
      quick_cfg with
      Fleet.shards = 2;
      replicas = 1;
      faults = Fleet.Seeded 1;
      retry_max = 2;
    }
  in
  let p = Fleet.run cfg ~rate:16. in
  Alcotest.(check (list string)) "no violations" [] p.Fleet.violations;
  Alcotest.(check int) "all requests accounted" p.Fleet.n
    (p.Fleet.served + p.Fleet.shed);
  Alcotest.(check bool) "load was shed while down" true (p.Fleet.shed > 0);
  Alcotest.(check bool) "writes retried with backoff" true (p.Fleet.retries > 0)

let test_replication_reduces_shed () =
  (* The EXPERIMENTS.md observation, as an inequality: under the same kill
     schedule, K=2 sheds strictly less than K=1 and serves strictly more. *)
  let run k =
    Fleet.run
      { quick_cfg with Fleet.shards = 4; replicas = k; faults = Fleet.Seeded 1 }
      ~rate:16.
  in
  let p1 = run 1 and p2 = run 2 in
  Alcotest.(check (list string)) "K=1 verifies" [] p1.Fleet.violations;
  Alcotest.(check (list string)) "K=2 verifies" [] p2.Fleet.violations;
  Alcotest.(check bool)
    (Printf.sprintf "K=2 sheds no more than K=1 (%d vs %d)" p2.Fleet.shed p1.Fleet.shed)
    true
    (p2.Fleet.shed <= p1.Fleet.shed);
  Alcotest.(check bool) "K=1 sheds under the kill" true (p1.Fleet.shed > 0)

(* == Determinism ======================================================= *)

let test_sweep_deterministic_under_faults () =
  (* The whole point list — achieved, latencies, failovers, recovery —
     must be identical serial vs a width-8 pool, under an active fault
     schedule. *)
  let cfg = { quick_cfg with Fleet.clients = 2048; faults = Fleet.Seeded 2 } in
  let rates = [ 8.; 16. ] in
  let serial = Fleet.sweep cfg ~rates in
  let parallel = Pool.with_pool ~jobs:8 (fun pool -> Fleet.sweep ~pool cfg ~rates) in
  Alcotest.(check bool) "sweep identical at any width" true (serial = parallel);
  (* and a re-run from scratch is bit-identical too *)
  Alcotest.(check bool) "re-run identical" true (serial = Fleet.sweep cfg ~rates)

(* == Injected failure, reproducer, shrink ============================== *)

let failing_cfg =
  (* Shard 0 silently drops every persist after setup; an explicit kill
     lands on it mid-run, so committed-then-crashed writes are acked but
     lost — the oracle must catch the divergence. *)
  {
    quick_cfg with
    Fleet.shards = 3;
    replicas = 2;
    requests = 400;
    update_pct = 30;
    faults = Fleet.Kill [ { Fleet.at = 9000; shard = 0 } ];
    drop_persists = Some 0;
  }

(* The exact verdicts, byte for byte: shard 0 lost acked inserts and
   resurrected acked deletes, and nothing on the other replicas. *)
let test_injected_durability_failure_is_caught () =
  let p = Fleet.run failing_cfg ~rate:16. in
  Alcotest.(check (list string))
    "durability violations"
    [
      "[fleet-durability] shard 0: durably-deleted key 5 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 49 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-inserted key 54 lost after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 57 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-inserted key 98 lost after crash+repair";
      "[fleet-durability] shard 0: durably-inserted key 104 lost after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 145 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 175 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-inserted key 180 lost after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 271 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 283 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 303 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-deleted key 455 resurrected after crash+repair";
      "[fleet-durability] shard 0: durably-inserted key 464 lost after crash+repair";
    ]
    p.Fleet.violations

let test_shrink_and_reproducer_roundtrip () =
  let small, sp = Fleet.shrink failing_cfg ~rate:16. in
  Alcotest.(check bool) "shrunk config still fails" true (sp.Fleet.violations <> []);
  Alcotest.(check bool) "shrunk below the original" true
    (small.Fleet.requests < failing_cfg.Fleet.requests);
  let path = Filename.temp_file "fleet_repro" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
    Fleet.write_reproducer path small ~rate:16.;
    match Fleet.read_reproducer path with
    | Error e -> Alcotest.fail e
    | Ok (cfg', rate') ->
      Alcotest.(check bool) "config round-trips" true (cfg' = small);
      Alcotest.(check (float 0.)) "rate round-trips" 16. rate';
      (* replaying the reproducer reproduces the violation, bit-for-bit *)
      let p' = Fleet.run cfg' ~rate:rate' in
      Alcotest.(check (list string))
        "replay reproduces the exact violations" sp.Fleet.violations
        p'.Fleet.violations)

(* A reproducer that cannot be read back faithfully must be rejected, never
   replayed as some other configuration. *)
let with_reproducer_lines edit f =
  let path = Filename.temp_file "fleet_repro" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
    Fleet.write_reproducer path failing_cfg ~rate:16.;
    let ic = open_in path in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    close_in ic;
    let oc = open_out path in
    List.iter (fun l -> if l <> "" then output_string oc (edit l ^ "\n")) lines;
    close_out oc;
    f path)

let replace_key key value line =
  match String.index_opt line '=' with
  | Some i when String.sub line 0 i = key -> key ^ "=" ^ value
  | _ -> line

let expect_error what needle = function
  | Ok _ -> Alcotest.failf "%s: reproducer accepted" what
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    if not (contains e needle) then Alcotest.failf "%s: error %S lacks %S" what e needle

let test_reproducer_rejects_bad_values () =
  List.iter
    (fun (key, value) ->
      with_reproducer_lines (replace_key key value) (fun path ->
        expect_error (key ^ "=" ^ value) key (Fleet.read_reproducer path)))
    [
      ("structure", "bogus");
      ("strategy", "nonsense");
      ("requests", "abc");
      ("process", "gamma");
      ("faults", "12:");
      ("rate", "fast");
      ("keys", "zipf:x");
      ("keys", "zipf:99999999999999999999.5");
      ("drop_persists", "one");
    ]

let test_reproducer_missing_key () =
  with_reproducer_lines
    (fun l -> if String.length l > 5 && String.sub l 0 5 = "seed=" then "# dropped" else l)
    (fun path -> expect_error "no seed" "missing field seed" (Fleet.read_reproducer path));
  (* keys, churn and drop_persists are optional: older files lack them. *)
  let optional l =
    List.exists
      (fun k -> String.length l > String.length k && String.sub l 0 (String.length k) = k)
      [ "keys="; "churn="; "drop_persists=" ]
  in
  with_reproducer_lines
    (fun l -> if optional l then "" else l)
    (fun path ->
      match Fleet.read_reproducer path with
      | Error e -> Alcotest.fail e
      | Ok (cfg, _) ->
        Alcotest.(check bool) "optional keys default" true
          (cfg = { failing_cfg with Fleet.drop_persists = None }));
  (* Older files carry linger and fanout, now constants, at their values:
     the reader ignores both keys. *)
  with_reproducer_lines
    (fun l ->
      if String.starts_with ~prefix:"batch=" l then l ^ "\nlinger=600"
      else if String.starts_with ~prefix:"fanout_pct=" l then l ^ "\nfanout=4"
      else l)
    (fun path ->
      match Fleet.read_reproducer path with
      | Error e -> Alcotest.fail e
      | Ok (cfg, _) ->
        Alcotest.(check bool) "linger and fanout keys ignored" true (cfg = failing_cfg))

let test_reproducer_missing_file () =
  match Fleet.read_reproducer "/nonexistent/fleet-repro.txt" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* Any config, written whole and read back, is itself: every key of the
   file, the optional keys, churn and drop_persists present or absent,
   phased and degraded arrival processes, kill lists and rand:N. *)
let gen_repro =
  let open QCheck.Gen in
  let* n = array_repeat 16 int in
  let* kind = oneofl Skipit_pds.Set_ops.all_kinds in
  let* mode = oneofl Skipit_persist.Pctx.all_modes in
  let* spec =
    oneof
      [ oneofl Ds_bench.default_specs; map (fun n -> Ds_bench.Flit_hash n) (int_range 1 max_int) ]
  in
  let* process = Test_workload_gen.gen_process in
  let* keys =
    oneof
      [
        return Workload.Uniform;
        map (fun m -> Workload.Zipf { theta_milli = m }) (int_range 0 4000);
      ]
  in
  let* churn = opt int in
  let* faults = Test_workload_gen.gen_faults in
  let* drop_persists = opt int in
  let* rate = float_range 0.001 1000. in
  return
    ( {
        Fleet.shards = n.(0); replicas = n.(1); vnodes = n.(2); kind; mode; spec; process;
        workload = { Workload.keys; churn }; clients = n.(3); requests = n.(4); depth = n.(5);
        batch = n.(6); retry_max = n.(7); backoff = n.(8); backoff_cap = n.(9);
        timeout = n.(10); fanout_pct = n.(11); key_range = n.(12); update_pct = n.(13);
        prefill = n.(14); seed = n.(15); faults; drop_persists;
      },
      rate )

let prop_reproducer_round_trip =
  QCheck.Test.make ~name:"reproducer file round-trips every field" ~count:200
    (QCheck.make gen_repro ~print:(fun (cfg, rate) ->
       Printf.sprintf "%s %s %s rate=%h" (Ds_bench.spec_name cfg.Fleet.spec)
         (Arrival.process_name cfg.Fleet.process)
         (Fleet.fault_schedule_name cfg.Fleet.faults) rate))
    (fun (cfg, rate) ->
      let path = Filename.temp_file "fleet_repro" ".txt" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Fleet.write_reproducer path cfg ~rate;
      match Fleet.read_reproducer path with
      | Error e -> QCheck.Test.fail_reportf "read back failed: %s" e
      | Ok (cfg', rate') ->
        (cfg' = cfg && Int64.equal (Int64.bits_of_float rate') (Int64.bits_of_float rate))
        || QCheck.Test.fail_reportf "read back as a different config")

let test_fault_schedule_names () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Fleet.fault_schedule_name f ^ " round-trips")
        true
        (Fleet.fault_schedule_of_name (Fleet.fault_schedule_name f) = Some f))
    [
      Fleet.No_faults;
      Fleet.Seeded 3;
      Fleet.Kill [ { Fleet.at = 9000; shard = 0 } ];
      Fleet.Kill [ { Fleet.at = 100; shard = 2 }; { Fleet.at = 900; shard = 1 } ];
    ];
  Alcotest.(check bool) "garbage rejected" true
    (Fleet.fault_schedule_of_name "12:" = None);
  Alcotest.(check bool) "negative rejected" true
    (Fleet.fault_schedule_of_name "rand:0" = None)

let test_validate () =
  let bad cfg msg =
    match Fleet.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.fail ("validate accepted " ^ msg)
  in
  bad { Fleet.default with Fleet.replicas = 5 } "replicas > shards";
  bad { Fleet.default with Fleet.shards = 0 } "zero shards";
  bad
    { Fleet.default with Fleet.spec = Skipit_workload.Ds_bench.Baseline;
      faults = Fleet.Seeded 1 }
    "non-persistent baseline under faults";
  bad { Fleet.default with Fleet.drop_persists = Some 7 } "drop_persists out of range";
  bad
    { Fleet.default with Fleet.faults = Fleet.Kill [ { Fleet.at = 1; shard = 9 } ] }
    "fault on unknown shard";
  match Fleet.validate Fleet.default with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("default config rejected: " ^ e)

let tests =
  ( "fleet",
    [
      Alcotest.test_case "ring: replica sets well-formed + deterministic" `Quick
        test_ring_properties;
      Alcotest.test_case "ring: vnode ownership balance" `Quick test_ring_balance;
      QCheck_alcotest.to_alcotest prop_replica_table;
      Alcotest.test_case "healthy run verifies" `Quick test_healthy_run;
      Alcotest.test_case "mid-run kill: failover + repair + oracle" `Quick
        test_kill_run_passes_oracle;
      Alcotest.test_case "replicas=1 kill: retry, backoff, shed — no hang" `Quick
        test_unreplicated_kill_degrades_gracefully;
      Alcotest.test_case "oracle orders writes by execution" `Quick
        test_oracle_orders_by_execution;
      Alcotest.test_case "recovery bound reports a hang" `Quick
        test_recovery_bound_reports_hang;
      Alcotest.test_case "replication reduces shed under a kill" `Quick
        test_replication_reduces_shed;
      Alcotest.test_case "sweep byte-identical at any width under faults" `Quick
        test_sweep_deterministic_under_faults;
      Alcotest.test_case "injected drop-persists failure is caught" `Quick
        test_injected_durability_failure_is_caught;
      Alcotest.test_case "shrink + reproducer round-trip" `Quick
        test_shrink_and_reproducer_roundtrip;
      Alcotest.test_case "reproducer rejects bad values" `Quick
        test_reproducer_rejects_bad_values;
      Alcotest.test_case "reproducer missing key" `Quick test_reproducer_missing_key;
      Alcotest.test_case "reproducer missing file" `Quick test_reproducer_missing_file;
      QCheck_alcotest.to_alcotest prop_reproducer_round_trip;
      Alcotest.test_case "fault schedule names round-trip" `Quick
        test_fault_schedule_names;
      Alcotest.test_case "config validation" `Quick test_validate;
    ] )
