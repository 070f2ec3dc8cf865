(* The invariant auditor and the crash campaign (lib/audit): healthy
   systems audit clean, a crash mid-flush leaves no leaked occupancy and
   the same system stays usable, campaigns pass on the default config, and
   a seeded fault (a strategy eliding a required writeback) is caught,
   shrunk and round-tripped through a reproducer file. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Dcache = Skipit_l1.Dcache
module Flush_unit = Skipit_l1.Flush_unit
module PL = Skipit_mem.Persist_log
module Invariant = Skipit_audit.Invariant
module Auditor = Skipit_audit.Auditor
module Campaign = Skipit_audit.Campaign
module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Ops = Skipit_pds.Set_ops

let no_violations what vs =
  if vs <> [] then
    Alcotest.failf "%s: %d violation(s), first: %s" what (List.length vs)
      (Invariant.violation_to_string (List.hd vs))

(* ------------------------------------------------------------------ *)

let store_flush_lines sys ~base ~lines =
  let body () =
    for i = 0 to lines - 1 do
      T.store (base + (i * 64)) (i + 1);
      T.flush (base + (i * 64))
    done;
    T.fence ()
  in
  ignore (T.run sys [ { T.core = 0; body } ])

let test_healthy_audit () =
  let sys = S.create (C.tiny ~cores:2 ()) in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (32 * 64) in
  no_violations "fresh system" (Invariant.check_all ~quiesced:true sys);
  store_flush_lines sys ~base ~lines:32;
  no_violations "after store+flush" (Invariant.check_all ~quiesced:true sys);
  (* Dirty lines present (no flush): structural checks still hold. *)
  ignore
    (T.run sys
       [ { T.core = 1; body = (fun () -> T.store (base + 8) 99; T.store (base + 640) 7) } ]);
  no_violations "with dirty lines" (Invariant.check_all ~quiesced:true sys)

let test_auditor_conservation () =
  let sys = S.create (C.tiny ~cores:1 ()) in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (8 * 64) in
  let auditor = Auditor.create sys in
  ignore (T.run sys [ { T.core = 0; body = (fun () -> T.store base 1) } ]);
  no_violations "observe dirty" (Auditor.observe auditor);
  ignore (T.run sys [ { T.core = 0; body = (fun () -> T.flush base; T.fence ()) } ]);
  (* The line left the dirty set via a persist: conservation holds. *)
  no_violations "observe after flush" (Auditor.observe auditor);
  no_violations "accumulated" (Auditor.failures auditor)

(* Satellite: crash mid-flush must reset Resource occupancy and flush-queue
   state, and the same system must run a fresh workload afterwards. *)
let test_crash_mid_flush () =
  let sys = S.create (C.tiny ~cores:1 ()) in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (64 * 64) in
  let log = S.persist_log sys in
  (* Stop in the middle of a burst of flushes: persist events exist but the
     instruction stream is nowhere near done. *)
  let outcome =
    T.run_until sys
      ~stop:(fun () -> PL.length log >= 3)
      [
        {
          T.core = 0;
          body =
            (fun () ->
              for i = 0 to 63 do
                T.store (base + (i * 64)) i;
                T.flush (base + (i * 64))
              done;
              T.fence ());
        };
      ]
  in
  (match outcome with
   | `Stopped _ -> ()
   | `Completed _ -> Alcotest.fail "expected the run to stop mid-flush");
  S.crash sys;
  let dc = S.dcache sys 0 in
  let fu = Dcache.flush_unit dc in
  Alcotest.(check int) "no FSHR pendings survive" 0 (Flush_unit.outstanding fu ~now:max_int);
  Alcotest.(check int) "flush queue drained" 0 (Flush_unit.queue_occupants fu);
  no_violations "post-crash invariants" (Invariant.check_all ~quiesced:true sys);
  (* The same system must accept a fresh workload after the crash. *)
  store_flush_lines sys ~base ~lines:16;
  no_violations "post-crash reuse" (Invariant.check_all ~quiesced:true sys);
  for i = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "line %d durable after re-run" i)
      (i + 1)
      (S.persisted_word sys (base + (i * 64)))
  done

(* ------------------------------------------------------------------ *)

let quick_spec ?(fault = Campaign.No_fault) ?(ops = 10) structure mode strategy =
  { Campaign.structure; mode; strategy; fault; seed = 11; n_ops = ops }

let test_campaign_clean () =
  (* One structure per mode keeps the smoke test quick; the CLI covers the
     full matrix. *)
  let specs =
    [
      quick_spec Campaign.Queue Pctx.Manual Campaign.Skipit;
      quick_spec (Campaign.Set Ops.List_set) Pctx.Nvtraverse Campaign.Plain;
      quick_spec (Campaign.Set Ops.Hash_set) Pctx.Automatic Campaign.Plain;
    ]
  in
  List.iter
    (fun spec ->
      let r = Campaign.run_spec ~budget:4 spec in
      match r.Campaign.failure with
      | None -> ()
      | Some f ->
        Alcotest.failf "%s failed at crash_at=%s: %s" (Campaign.spec_name spec)
          (match f.Campaign.crash_at with Some b -> string_of_int b | None -> "-")
          (String.concat "; " f.Campaign.violations))
    specs

let test_campaign_catches_fault () =
  (* A strategy that silently drops every required writeback must fail, and
     the failure must shrink and round-trip through a reproducer file. *)
  let spec =
    quick_spec ~fault:Campaign.Drop_all_persists ~ops:12 (Campaign.Set Ops.List_set)
      Pctx.Manual Campaign.Plain
  in
  let r = Campaign.run_spec ~budget:8 spec in
  match r.Campaign.failure with
  | None -> Alcotest.fail "campaign missed a strategy that elides every writeback"
  | Some f ->
    let s = Campaign.shrink f in
    Alcotest.(check bool) "shrunk schedule no longer than original" true
      (s.Campaign.spec.Campaign.n_ops <= spec.Campaign.n_ops);
    Alcotest.(check bool) "shrunk failure still has violations" true
      (s.Campaign.violations <> []);
    let file = Filename.temp_file "skipit-repro" ".txt" in
    Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
    Campaign.write_reproducer file s;
    (match Campaign.read_reproducer file with
     | Error e -> Alcotest.failf "reproducer did not parse back: %s" e
     | Ok f' ->
       Alcotest.(check string) "spec round-trips"
         (Campaign.spec_name s.Campaign.spec)
         (Campaign.spec_name f'.Campaign.spec);
       Alcotest.(check bool) "crash point round-trips" true
         (f'.Campaign.crash_at = s.Campaign.crash_at);
       let t = Campaign.run_trial f'.Campaign.spec ~crash_at:f'.Campaign.crash_at in
       Alcotest.(check bool) "replayed reproducer still fails" true
         (t.Campaign.violations <> []))

(* ------------------------------------------------------------------ *)
(* Reproducer files: a written failure reads back as itself, and a file
   that cannot be read back faithfully is rejected, never replayed as some
   other run. *)

(* Write [fail] as a reproducer, apply [edit] to each of its lines, and
   read it back. *)
let read_edited ?(edit = Fun.id) fail =
  let path = Filename.temp_file "skipit-repro" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Campaign.write_reproducer path fail;
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  Out_channel.with_open_text path (fun oc ->
    List.iter (fun l -> if l <> "" then output_string oc (edit l ^ "\n")) lines);
  Campaign.read_reproducer path

let sample_failure =
  {
    Campaign.spec = quick_spec (Campaign.Set Ops.Bst_set) Pctx.Manual Campaign.Plain;
    crash_at = Some 3;
    completed = 0;
    violations = [];
  }

let test_reproducer_rejects_bad_values () =
  List.iter
    (fun (key, value) ->
      Test_fleet.expect_error (key ^ "=" ^ value) key
        (read_edited ~edit:(Test_fleet.replace_key key value) sample_failure))
    [
      ("ops", "-2");
      ("ops", "0");
      ("crash_at", "-4");
      ("structure", "bogus");
      ("mode", "eager");
      ("strategy", "nonsense");
      ("fault", "drop-nth-persist:0");
      ("seed", "abc");
    ]

let gen_fault =
  QCheck.Gen.(
    oneof
      [
        oneofl [ Campaign.No_fault; Campaign.Drop_all_persists; Campaign.Drop_nth_persist 1 ];
        map (fun n -> Campaign.Drop_nth_persist n) (int_range 1 max_int);
      ])

let gen_failure =
  QCheck.Gen.(
    let* structure = oneofl Campaign.all_structures in
    let* mode = oneofl Pctx.all_modes in
    let* strategy = oneofl Campaign.all_strategies in
    let* fault = gen_fault in
    let* seed = int in
    let* n_ops = oneof [ int_range 1 100; int_range 1 max_int ] in
    let* crash_at = opt (int_range 1 max_int) in
    return
      {
        Campaign.spec = { Campaign.structure; mode; strategy; fault; seed; n_ops };
        crash_at;
        completed = 0;
        violations = [];
      })

let print_failure (f : Campaign.failure) =
  Printf.sprintf "%s seed=%d ops=%d crash_at=%s" (Campaign.spec_name f.spec) f.spec.seed
    f.spec.n_ops
    (match f.crash_at with Some b -> string_of_int b | None -> "-")

let prop_reproducer_round_trip =
  QCheck.Test.make ~name:"reproducer round-trips spec and crash point" ~count:300
    (QCheck.make gen_failure ~print:print_failure) (fun f ->
      match read_edited f with
      | Error e -> QCheck.Test.fail_reportf "read back failed: %s" e
      | Ok f' ->
        (f'.spec = f.spec && f'.crash_at = f.crash_at)
        || QCheck.Test.fail_reportf "read back as %s" (print_failure f'))

let prop_fault_name_round_trip =
  QCheck.Test.make ~name:"fault names round-trip" ~count:100
    (QCheck.make gen_fault ~print:Campaign.fault_name) (fun f ->
      Campaign.fault_of_name (Campaign.fault_name f) = Some f)

(* "?" starts no integer and no structure, mode, strategy or fault name. *)
let prop_reproducer_rejects_garbage =
  QCheck.Test.make ~name:"reproducer rejects a garbage field" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple gen_failure
           (oneofl [ "structure"; "mode"; "strategy"; "fault"; "seed"; "ops"; "crash_at" ])
           (map (( ^ ) "?") (string_size ~gen:(char_range ' ' '~') (int_bound 12))))
       ~print:(fun (f, key, v) -> Printf.sprintf "%s with %s=%s" (print_failure f) key v))
    (fun (f, key, garbage) ->
      Test_fleet.expect_error (key ^ "=" ^ garbage) key
        (read_edited f ~edit:(Test_fleet.replace_key key garbage));
      true)

(* ------------------------------------------------------------------ *)
(* Satellite: per-structure qcheck property — random ops, random crash
   point, repair ⇒ every durably-completed update is present and nothing
   phantom appears.  run_trial's oracle is exactly that check, so the
   property is "no trial on an un-faulted spec ever reports a violation". *)

let prop_crash_repair structure =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: crash+repair durable linearizability" (Campaign.structure_name structure))
    ~count:6
    QCheck.(triple small_int (int_range 0 2) (int_range 1 30))
    (fun (seed, mode_ix, boundary) ->
      let mode = List.nth Pctx.all_modes mode_ix in
      let spec =
        { Campaign.structure; mode; strategy = Campaign.Skipit; fault = Campaign.No_fault;
          seed; n_ops = 8 }
      in
      let t = Campaign.run_trial spec ~crash_at:(Some boundary) in
      match t.Campaign.violations with
      | [] -> true
      | v -> QCheck.Test.fail_reportf "%s crash_at=%d: %s" (Campaign.spec_name spec) boundary
               (String.concat "; " v))

(* ------------------------------------------------------------------ *)
(* Forked crash trials against the replay oracle.                     *)

let trial_to_string (t : Campaign.trial) =
  Printf.sprintf "{persists=%d; crashed=%b; completed=%d; violations=[%s]}" t.Campaign.persists
    t.Campaign.crashed t.Campaign.completed (String.concat "; " t.Campaign.violations)

(* Every boundary's forked trial equals a replay with that crash point, as
   a record, over random structures, modes, strategies (all four), faults
   and schedules.  Boundaries are drawn from 1 .. persists + 2, so some
   are reached only at completion or never. *)
let prop_forked_equals_replay =
  let gen =
    QCheck.Gen.(
      let* structure = oneofl Campaign.all_structures in
      let* mode = oneofl Pctx.all_modes in
      let* strategy = oneofl Campaign.all_strategies in
      let* fault =
        oneof
          [
            return Campaign.No_fault;
            return Campaign.Drop_all_persists;
            map (fun n -> Campaign.Drop_nth_persist n) (int_range 1 30);
          ]
      in
      let* seed = int_bound 10_000 in
      let* n_ops = int_range 1 40 in
      let* picks = list_size (int_range 1 5) (int_bound 1_000_000) in
      return ({ Campaign.structure; mode; strategy; fault; seed; n_ops }, picks))
  in
  QCheck.Test.make ~name:"forked crash trials equal replayed ones" ~count:40
    (QCheck.make gen ~print:(fun (spec, picks) ->
       Printf.sprintf "%s picks=[%s]" (Campaign.spec_name spec)
         (String.concat ";" (List.map string_of_int picks))))
    (fun (spec, picks) ->
      QCheck.assume (Campaign.compatible spec);
      let full = Campaign.run_trial spec ~crash_at:None in
      let bs =
        List.sort_uniq compare (List.map (fun x -> 1 + (x mod (full.Campaign.persists + 2))) picks)
      in
      let forked = Campaign.crash_trials spec bs in
      if List.map fst forked <> bs then QCheck.Test.fail_report "boundaries out of order";
      List.for_all
        (fun (b, t) ->
          let r = Campaign.run_trial spec ~crash_at:(Some b) in
          r = t
          || QCheck.Test.fail_reportf "crash_at=%d: forked %s, replayed %s" b (trial_to_string t)
               (trial_to_string r))
        forked)

(* ms-queue/nvtraverse/plain, seed 21, 1 op: the fifth and last persist
   point returns after the last dispatch, so no replay stops at it and the
   trial is the uncrashed one.  Boundary 4 is reached mid-run. *)
let test_boundary_reached_at_completion () =
  let spec = quick_spec ~ops:1 Campaign.Queue Pctx.Nvtraverse Campaign.Plain in
  let spec = { spec with Campaign.seed = 21 } in
  let replay b = Campaign.run_trial spec ~crash_at:(Some b) in
  Alcotest.(check int) "five persist points" 5
    (Campaign.run_trial spec ~crash_at:None).Campaign.persists;
  Alcotest.(check bool) "boundary 4 crashes" true (replay 4).Campaign.crashed;
  Alcotest.(check bool) "boundary 5 is never stopped at" false (replay 5).Campaign.crashed;
  List.iter
    (fun (b, t) ->
      Alcotest.(check string) (Printf.sprintf "boundary %d" b) (trial_to_string (replay b))
        (trial_to_string t))
    (Campaign.crash_trials spec [ 4; 5 ])

(* A copy shares no mutable state with its original: poking the copy's
   DRAM leaves the original's and a sibling copy's unchanged; the
   original and the sibling then both crash as a replay does, and a copy
   taken before the run completes, counters included, as a fresh world
   does. *)
let test_copied_world_is_independent () =
  let spec = quick_spec ~ops:12 (Campaign.Set Ops.List_set) Pctx.Manual Campaign.Plain in
  let b = 6 in
  let w = Campaign.build spec in
  let unrun = Campaign.copy w in
  Alcotest.(check bool) "paused mid-run" true
    (Campaign.run w ~stop:(fun () -> Campaign.persist_points w >= b));
  let poked = Campaign.copy w and sibling = Campaign.copy w in
  let addr =
    match PL.events (S.persist_log (Campaign.system w)) with
    | e :: _ -> e.PL.addr
    | [] -> Alcotest.fail "no line persisted before the pause"
  in
  let before = S.persisted_word (Campaign.system w) addr in
  S.poke_word (Campaign.system poked) addr (before + 1);
  Alcotest.(check int) "copy poked" (before + 1) (S.persisted_word (Campaign.system poked) addr);
  Alcotest.(check int) "original untouched" before (S.persisted_word (Campaign.system w) addr);
  Alcotest.(check int) "sibling copy untouched" before
    (S.persisted_word (Campaign.system sibling) addr);
  let replay = trial_to_string (Campaign.run_trial spec ~crash_at:(Some b)) in
  Alcotest.(check string) "original crashes as a replay" replay
    (trial_to_string (Campaign.finish w ~crashed:true));
  Alcotest.(check string) "sibling crashes as a replay" replay
    (trial_to_string (Campaign.finish sibling ~crashed:true));
  Alcotest.(check bool) "unrun copy runs to completion" false
    (Campaign.run unrun ~stop:(fun () -> false));
  let fresh = Campaign.build spec in
  ignore (Campaign.run fresh ~stop:(fun () -> false));
  Alcotest.(check (list (pair string int))) "unrun copy counts as a fresh run"
    (S.stats_report (Campaign.system fresh))
    (S.stats_report (Campaign.system unrun));
  Alcotest.(check string) "unrun copy completes as an uncrashed run"
    (trial_to_string (Campaign.finish fresh ~crashed:false))
    (trial_to_string (Campaign.finish unrun ~crashed:false))

let tests =
  ( "audit",
    [
      Alcotest.test_case "healthy system audits clean" `Quick test_healthy_audit;
      Alcotest.test_case "auditor dirty-line conservation" `Quick test_auditor_conservation;
      Alcotest.test_case "crash mid-flush resets occupancy" `Quick test_crash_mid_flush;
      Alcotest.test_case "campaign clean on default config" `Slow test_campaign_clean;
      Alcotest.test_case "campaign catches seeded fault" `Slow test_campaign_catches_fault;
      Alcotest.test_case "boundary reached only at completion" `Quick
        test_boundary_reached_at_completion;
      Alcotest.test_case "copied world shares no mutable state" `Quick
        test_copied_world_is_independent;
      QCheck_alcotest.to_alcotest prop_forked_equals_replay;
      Alcotest.test_case "reproducer rejects bad values" `Quick
        test_reproducer_rejects_bad_values;
      QCheck_alcotest.to_alcotest prop_reproducer_round_trip;
      QCheck_alcotest.to_alcotest prop_fault_name_round_trip;
      QCheck_alcotest.to_alcotest prop_reproducer_rejects_garbage;
    ]
    @ List.map
        (fun s -> QCheck_alcotest.to_alcotest (prop_crash_repair s))
        Campaign.all_structures )
