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
module Recovery = Skipit_audit.Recovery
module Ds_bench = Skipit_workload.Ds_bench
module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Ops = Skipit_pds.Set_ops
module L2 = Skipit_l2.Inclusive_cache
module Directory = Skipit_l2.Directory

let no_violations what vs =
  if vs <> [] then
    Alcotest.failf "%s: %d violation(s), first: %s" what (List.length vs)
      (Invariant.violation_to_string (List.hd vs))

(* The strategies the campaign-world properties draw from. *)
let strategies = Ds_bench.[ Plain; Skipit; Flit_adjacent; Link_and_persist ]

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

(* A check's cost does not grow with the persist log: on a quiesced
   system holding the same lines, [check_all] allocates as many minor
   words after 2,000 persist events as after 10.  Each round stores and
   cleans the same ten lines, so every round leaves the caches as the
   first did and adds ten events. *)
let test_check_cost_flat_in_log () =
  let sys = S.create (C.tiny ~cores:1 ()) in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (10 * 64) in
  let round () =
    let body () =
      for i = 0 to 9 do
        T.store (base + (i * 64)) (i + 1);
        T.clean (base + (i * 64))
      done;
      T.fence ()
    in
    ignore (T.run sys [ { T.core = 0; body } ])
  in
  let words () =
    let before = Gc.minor_words () in
    let vs = Invariant.check_all ~quiesced:true sys in
    let after = Gc.minor_words () in
    no_violations "quiesced" vs;
    after -. before
  in
  round ();
  Alcotest.(check int) "10 events" 10 (PL.length (S.persist_log sys));
  let short = words () in
  for _ = 2 to 200 do
    round ()
  done;
  Alcotest.(check int) "2000 events" 2000 (PL.length (S.persist_log sys));
  Alcotest.(check (float 0.)) "minor words at 2000 events = at 10" short (words ())

(* ------------------------------------------------------------------ *)
(* The audit against its previous implementation (Audit_oracle).      *)

let violations_text vs = String.concat " | " (List.map Invariant.violation_to_string vs)

let same_violations what got want =
  if got <> want then
    QCheck.Test.fail_reportf "%s:\n  got    [%s]\n  oracle [%s]" what (violations_text got)
      (violations_text want)

(* Every line cached clean in an L1 or the L2, as the old views list it. *)
let clean_lines sys =
  let acc = ref [] in
  for core = 0 to S.n_cores sys - 1 do
    let dc = S.dcache sys core in
    List.iter
      (fun (addr, _) ->
        match Dcache.line_state dc addr with
        | Some l when not l.Dcache.dirty -> acc := addr :: !acc
        | Some _ | None -> ())
      (Dcache.held_lines dc)
  done;
  L2.iter_lines (S.l2 sys) (fun addr dir -> if not dir.Directory.dirty then acc := addr :: !acc);
  List.sort_uniq compare !acc

(* Make NVMM disagree with clean cached lines, one word each: with one
   third each, no line, about one in five, or every one. *)
let poke_clean_lines rng sys =
  let p = [| 0.; 0.2; 1. |].(Random.State.int rng 3) in
  List.iter
    (fun line ->
      if Random.State.float rng 1. < p then begin
        let a = line + (8 * Random.State.int rng 8) in
        S.poke_word sys a (S.persisted_word sys a + 1 + Random.State.int rng 5)
      end)
    (clean_lines sys)

(* At random boundaries of a campaign run, the run is copied into a twin
   and the twin audited by [check_all] (both modes) and by a stateful
   [Auditor] beside the oracle's: as copied, after NVMM words under clean
   lines are poked (the persist log sometimes cleared, so lines that left
   the dirty set must match NVMM), and after a crash.  The violation
   lists must be equal, strings and order. *)
let prop_audit_matches_oracle =
  let gen =
    QCheck.Gen.(
      let* structure = oneofl Campaign.all_structures in
      let* mode = oneofl Pctx.all_modes in
      let* strategy = oneofl strategies in
      let* fault =
        oneof
          [
            return Campaign.No_fault;
            return Campaign.Drop_all_persists;
            map (fun n -> Campaign.Drop_nth_persist n) (int_range 1 30);
          ]
      in
      let* l2_banks = oneofl [ 1; 4 ] in
      let* seed = int_bound 10_000 in
      let* n_ops = int_range 1 30 in
      let* picks = list_size (int_range 1 4) (int_bound 1_000_000) in
      let* span = int_range 1 12 in
      let* salt = int_bound 1_000_000 in
      let spec = { Campaign.structure; mode; strategy; fault; seed; n_ops; l2_banks } in
      return (spec, (picks, span), salt))
  in
  QCheck.Test.make ~name:"audit matches its oracle on campaign worlds" ~count:100
    (QCheck.make gen ~print:(fun (spec, (picks, span), salt) ->
       Printf.sprintf "%s l2_banks=%d picks=[%s] span=%d salt=%d" (Campaign.spec_name spec)
         spec.Campaign.l2_banks
         (String.concat ";" (List.map string_of_int picks))
         span salt))
    (fun (spec, (picks, span), salt) ->
      QCheck.assume (Campaign.compatible spec);
      let full = Campaign.run_trial spec ~crash_at:None in
      (* The random picks, and a span of consecutive boundaries after the
         first: a line dirty at one boundary and clean at the next is what
         the conservation step judges. *)
      let bs = List.map (fun x -> 1 + (x mod (full.Campaign.persists + 1))) picks in
      let bs = List.sort_uniq compare (bs @ List.init span (fun i -> List.hd bs + i + 1)) in
      let w = Campaign.build spec and twin = Campaign.build spec in
      let sys = Campaign.system twin in
      let auditor = Auditor.create sys and oracle = Audit_oracle.create sys in
      let rng = Random.State.make [| salt |] in
      let compare_checks what =
        List.iter
          (fun quiesced ->
            same_violations
              (Printf.sprintf "%s, check_all ~quiesced:%b" what quiesced)
              (Invariant.check_all ~quiesced sys)
              (Audit_oracle.check_all ~quiesced sys))
          [ false; true ]
      in
      let check what =
        Campaign.copy_into ~src:w ~dst:twin;
        compare_checks what;
        poke_clean_lines rng sys;
        if Random.State.bool rng then PL.clear (S.persist_log sys);
        compare_checks (what ^ ", poked");
        same_violations (what ^ ", observe") (Auditor.observe auditor)
          (Audit_oracle.observe oracle);
        S.crash sys;
        compare_checks (what ^ ", crashed")
      in
      let pending = ref bs in
      let rec stop () =
        match !pending with
        | b :: rest when Campaign.persist_points w >= b ->
          pending := rest;
          check (Printf.sprintf "boundary %d" b);
          stop ()
        | _ -> false
      in
      ignore (Campaign.run w ~stop);
      check "completed run";
      true)

(* The same comparison on a hierarchy with a memory-side L3, which no
   campaign world has: random loads, stores, cleans and flushes from two
   cores over 256 lines (twice the tiny L2), audited between bursts, then
   again with NVMM poked under clean L1, L2 and L3 lines. *)
let prop_audit_matches_oracle_l3 =
  QCheck.Test.make ~name:"audit matches its oracle with an L3" ~count:20
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    (fun (salt, bursts) ->
      let sys = S.create (Params.with_l3 (C.tiny ~cores:2 ())) in
      let lines = 256 in
      let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (lines * 64) in
      let rng = Random.State.make [| salt |] in
      let auditor = Auditor.create sys and oracle = Audit_oracle.create sys in
      let audit what =
        List.iter
          (fun quiesced ->
            same_violations
              (Printf.sprintf "%s, check_all ~quiesced:%b" what quiesced)
              (Invariant.check_all ~quiesced sys)
              (Audit_oracle.check_all ~quiesced sys))
          [ false; true ];
        same_violations (what ^ ", observe") (Auditor.observe auditor)
          (Audit_oracle.observe oracle)
      in
      let l3_clean () =
        let acc = ref [] in
        Option.iter
          (fun l3 ->
            Skipit_l2.Memside_cache.iter_lines l3 (fun addr ~dirty ~data:_ ->
              if not dirty then acc := addr :: !acc))
          (S.l3 sys);
        !acc
      in
      for burst = 1 to bursts do
        let ops =
          List.init 40 (fun _ ->
            Random.State.int rng 4, base + (64 * Random.State.int rng lines) + (8 * Random.State.int rng 8))
        in
        let body () =
          List.iter
            (fun (op, a) ->
              match op with
              | 0 -> ignore (T.load a)
              | 1 -> T.store a (Random.State.bits rng)
              | 2 -> T.clean a
              | _ -> T.flush a)
            ops;
          if Random.State.bool rng then T.fence ()
        in
        ignore (T.run sys [ { T.core = Random.State.int rng 2; body } ]);
        audit (Printf.sprintf "burst %d" burst);
        if Random.State.bool rng then begin
          poke_clean_lines rng sys;
          List.iter
            (fun line -> if Random.State.bool rng then S.poke_word sys line (S.persisted_word sys line + 1))
            (l3_clean ());
          if Random.State.bool rng then PL.clear (S.persist_log sys);
          audit (Printf.sprintf "burst %d, poked" burst)
        end
      done;
      true)

(* The oracle comparison is not vacuous: NVMM poked under a clean
   skip-bit L1 line, its clean L2 copy and a line that left the dirty set
   without a persist event fires skip-durability, value-coherence and
   dirty-conservation, identically in both implementations. *)
let test_poked_nvmm_fires () =
  let sys = S.create { (C.tiny ~cores:2 ()) with Params.skip_it = true } in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (4 * 64) in
  let auditor = Auditor.create sys and oracle = Audit_oracle.create sys in
  let observe what =
    let got = Auditor.observe auditor and want = Audit_oracle.observe oracle in
    if got <> want then
      Alcotest.failf "%s: got [%s], oracle [%s]" what (violations_text got) (violations_text want);
    got
  in
  ignore (T.run sys [ { T.core = 0; body = (fun () -> T.store base 5; T.store (base + 64) 6) } ]);
  no_violations "dirty" (observe "dirty");
  ignore (T.run sys [ { T.core = 0; body = (fun () -> T.clean base; T.clean (base + 64); T.fence ()) } ]);
  PL.clear (S.persist_log sys);
  S.poke_word sys (base + 8) 77;
  let vs = observe "poked" in
  let rules = List.sort_uniq compare (List.map (fun v -> v.Invariant.rule) vs) in
  Alcotest.(check (list string)) "rules fired"
    [ "dirty-conservation"; "skip-durability"; "value-coherence" ]
    rules;
  Alcotest.(check (list string)) "check_all equals the oracle"
    (List.map Invariant.violation_to_string (Audit_oracle.check_all ~quiesced:true sys))
    (List.map Invariant.violation_to_string (Invariant.check_all ~quiesced:true sys))

(* The structural rules fire on a corrupted directory, worded as the
   oracle words them: a line an L1 holds whose directory owner bit is
   cleared breaks inclusion; an L2 dirty bit set under a clean L1 line
   whose skip bit is set breaks §6.2's skip safety. *)
let test_corrupt_directory_fires () =
  let sys = S.create { (C.tiny ~cores:2 ()) with Params.skip_it = true } in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (2 * 64) in
  let held = base and skipped = base + 64 in
  ignore
    (T.run sys
       [
         {
           T.core = 0;
           body =
             (fun () ->
               ignore (T.load held);
               T.store skipped 5;
               T.clean skipped;
               T.fence ());
         };
       ]);
  no_violations "before corruption" (Invariant.check_all sys);
  let dir addr =
    match L2.find_dir (S.l2 sys) addr with
    | Some d -> d
    | None -> Alcotest.failf "line %#x absent from L2" addr
  in
  let fires what rule =
    let vs = Invariant.check_all sys in
    Alcotest.(check (list string)) (what ^ ": check_all equals the oracle")
      (List.map Invariant.violation_to_string (Audit_oracle.check_all ~quiesced:false sys))
      (List.map Invariant.violation_to_string vs);
    Alcotest.(check (list string)) (what ^ ": rules fired") [ rule ]
      (List.sort_uniq compare (List.map (fun v -> v.Invariant.rule) vs))
  in
  Alcotest.(check bool) "clean line keeps its skip bit" true
    (match Dcache.line_state (S.dcache sys 0) skipped with
     | Some l -> l.Dcache.skip && not l.Dcache.dirty
     | None -> false);
  let d = dir held in
  let perm = Directory.owner_perm d 0 in
  Directory.set_owner d 0 Skipit_tilelink.Perm.Nothing;
  fires "owner bit cleared" "inclusion";
  Directory.set_owner d 0 perm;
  no_violations "owner bit restored" (Invariant.check_all sys);
  (* A Trunk grant beside another owner breaks single-writer in the
     directory alone: core 1 caches nothing, so every L1 copy still agrees
     with its directory entry. *)
  Directory.set_owner d 1 Skipit_tilelink.Perm.Trunk;
  fires "Trunk granted beside another owner" "single-writer";
  Directory.set_owner d 1 Skipit_tilelink.Perm.Nothing;
  no_violations "second owner removed" (Invariant.check_all sys);
  (dir skipped).Directory.dirty <- true;
  fires "L2 dirty under a skip line" "skip-safety"

(* ------------------------------------------------------------------ *)

let quick_spec ?(fault = Campaign.No_fault) ?(ops = 10) structure mode strategy =
  { Campaign.structure; mode; strategy; fault; seed = 11; n_ops = ops; l2_banks = 1 }

let test_campaign_clean () =
  (* One structure per mode keeps the smoke test quick; the CLI covers the
     full matrix. *)
  let specs =
    [
      quick_spec Campaign.Queue Pctx.Manual Ds_bench.Skipit;
      quick_spec (Campaign.Set Ops.List_set) Pctx.Nvtraverse Ds_bench.Plain;
      quick_spec (Campaign.Set Ops.Hash_set) Pctx.Automatic Ds_bench.Plain;
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
     the failure must shrink and round-trip through a reproducer file.  A
     spec carries its platform: found on a 4-bank L2, the failure shrinks
     and replays on 4 banks. *)
  List.iter
    (fun l2_banks ->
      let spec =
        {
          (quick_spec ~fault:Campaign.Drop_all_persists ~ops:12 (Campaign.Set Ops.List_set)
             Pctx.Manual Ds_bench.Plain)
          with
          Campaign.l2_banks;
        }
      in
      let r = Campaign.run_spec ~budget:8 spec in
      match r.Campaign.failure with
      | None -> Alcotest.fail "campaign missed a strategy that elides every writeback"
      | Some f ->
        let s = Campaign.shrink f in
        Alcotest.(check bool) "shrunk schedule no longer than original" true
          (s.Campaign.spec.Campaign.n_ops <= spec.Campaign.n_ops);
        Alcotest.(check int) "shrunk on the spec's banks" l2_banks
          s.Campaign.spec.Campaign.l2_banks;
        Alcotest.(check bool) "shrunk failure still has violations" true
          (s.Campaign.violations <> []);
        let file = Filename.temp_file "skipit-repro" ".txt" in
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        Campaign.write_reproducer file s;
        (match Campaign.read_reproducer file with
         | Error e -> Alcotest.failf "reproducer did not parse back: %s" e
         | Ok f' ->
           Alcotest.(check bool) "spec round-trips, banks included" true
             (f'.Campaign.spec = s.Campaign.spec);
           Alcotest.(check bool) "crash point round-trips" true
             (f'.Campaign.crash_at = s.Campaign.crash_at);
           let t = Campaign.run_trial f'.Campaign.spec ~crash_at:f'.Campaign.crash_at in
           Alcotest.(check (list string)) "replay reports the shrunk failure"
             s.Campaign.violations t.Campaign.violations))
    [ 1; 4 ]

(* The recovery bound: a body that never ends is stopped past 10^7
   simulated cycles and reported by name; one that ends reports the
   cycles it took. *)
let test_recovery_bound () =
  let sys = S.create (C.tiny ~cores:1 ()) in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  let c0 = S.max_clock sys in
  let flush_once () = T.store a 1; T.flush a; T.fence () in
  (match Recovery.run sys ~doing:(fun () -> "one flush") flush_once with
   | Ok c -> Alcotest.(check int) "cycles taken" (S.max_clock sys - c0) c
   | Error e -> Alcotest.failf "a short body hung: %s" e);
  let rec spin n =
    T.store a n;
    T.flush a;
    T.fence ();
    spin (n + 1)
  in
  let c0 = S.max_clock sys in
  match Recovery.run sys ~doing:(fun () -> "spinning") (fun () -> spin 0) with
  | Ok _ -> Alcotest.fail "a body that never ends completed"
  | Error e ->
    Alcotest.(check string) "reported" "spinning ran past 10000000 cycles" e;
    Alcotest.(check bool) "stopped past the bound" true (S.max_clock sys - c0 > 10_000_000)

(* A campaign repair past the bound is its trial's [repair-hang], and the
   structure is then not walked for a verdict: the queue's durable head
   and tail cells (the first two lines the campaign allocates) both name
   a node whose next link points back at itself, so the repair's walk to
   the last node never ends, and neither would the snapshot's.  A sparse
   auditor keeps the 10^7-cycle walk quick. *)
let test_repair_hang () =
  let spec = quick_spec ~ops:4 Campaign.Queue Pctx.Nvtraverse Ds_bench.Plain in
  let w = Campaign.build ~audit_every:1_000_000 spec in
  ignore (Campaign.run w ~stop:(fun () -> false));
  let sys = Campaign.system w in
  let loop = 0x8_0000 in
  List.iter (fun cell -> S.poke_word sys cell loop) [ 0x1_0000; 0x1_0040; loop + 8 ];
  let t = Campaign.finish w ~crashed:true in
  Alcotest.(check (list string)) "violations" [ "[repair-hang] repair ran past 10000000 cycles" ]
    t.Campaign.violations

(* The queue's head cell pointed at a self-linked node, the tail sound:
   the repair (which walks from the tail) finishes, and the snapshot walk
   from the head is stopped at the allocator's footprint and reported. *)
let test_snapshot_cycle () =
  let spec = quick_spec ~ops:4 Campaign.Queue Pctx.Nvtraverse Ds_bench.Plain in
  let w = Campaign.build ~audit_every:1_000_000 spec in
  ignore (Campaign.run w ~stop:(fun () -> false));
  let sys = Campaign.system w in
  let loop = 0x8_0000 in
  (* The record's fields are allocated right to left: the tail cell is
     the first line, the head cell the second. *)
  List.iter (fun cell -> S.poke_word sys cell loop) [ 0x1_0040; loop + 8 ];
  let started = Unix.gettimeofday () in
  let t = Campaign.finish w ~crashed:true in
  Alcotest.(check (list string)) "violations"
    [ "[snapshot-cycle] the snapshot walk loops (at node 0x80000)" ]
    t.Campaign.violations;
  let took = Unix.gettimeofday () -. started in
  Alcotest.(check bool) (Printf.sprintf "reported in %.3f s" took) true (took < 1.)

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
    Campaign.spec =
      { (quick_spec (Campaign.Set Ops.Bst_set) Pctx.Manual Ds_bench.Plain) with l2_banks = 2 };
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
      ("strategy", "baseline");
      ("strategy", "link-and-persist");
      ("fault", "drop-nth-persist:0");
      ("seed", "abc");
      ("l2_banks", "3");
      ("l2_banks", "0");
      ("l2_banks", "two");
    ]

let gen_fault =
  QCheck.Gen.(
    oneof
      [
        oneofl [ Campaign.No_fault; Campaign.Drop_all_persists; Campaign.Drop_nth_persist 1 ];
        map (fun n -> Campaign.Drop_nth_persist n) (int_range 1 max_int);
      ])

(* Any catalogue strategy the campaign accepts, FliT tables of any size
   included, on a structure it fits. *)
let gen_failure =
  QCheck.Gen.(
    let* mode = oneofl Pctx.all_modes in
    let* strategy =
      oneof
        [
          oneofl (List.filter (( <> ) Ds_bench.Baseline) Ds_bench.default_specs);
          map (fun n -> Ds_bench.Flit_hash n) (int_range 1 max_int);
        ]
    in
    let* fault = gen_fault in
    let* seed = int in
    let* n_ops = oneof [ int_range 1 100; int_range 1 max_int ] in
    let* l2_banks = oneofl [ 1; 2; 4; 8 ] in
    let* crash_at = opt (int_range 1 max_int) in
    let spec structure = { Campaign.structure; mode; strategy; fault; seed; n_ops; l2_banks } in
    let* structure =
      oneofl (List.filter (fun st -> Campaign.compatible (spec st)) Campaign.all_structures)
    in
    return
      {
        Campaign.spec = spec structure;
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

let prop_boundaries_within_budget =
  QCheck.Test.make ~name:"boundaries: min persists budget, first and last first" ~count:500
    QCheck.(triple (int_bound 300) (int_bound 40) small_int)
    (fun (persists, budget, seed) ->
      let bs = Campaign.boundaries ~persists ~budget ~seed in
      let last = List.fold_left (fun _ b -> b) 0 bs in
      List.length bs = Int.min persists budget
      && List.sort_uniq compare bs = bs
      && List.for_all (fun b -> b >= 1 && b <= persists) bs
      && (bs = [] || List.hd bs = 1)
      && (budget < 2 || last = persists))

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
        { Campaign.structure; mode; strategy = Ds_bench.Skipit; fault = Campaign.No_fault;
          seed; n_ops = 8; l2_banks = 1 }
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
      let* strategy = oneofl strategies in
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
      return ({ Campaign.structure; mode; strategy; fault; seed; n_ops; l2_banks = 1 }, picks))
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

(* The persist total that sizes a spec's boundaries comes from the
   untimed counting pass; it must equal the audited, simulated run's
   total, over the whole grid (every crash-testable strategy), each fault
   kind, both L2 shapes and random schedules.  [run_spec ~budget:0] runs
   that pass and the uncrashed audited run, whose disagreement would also
   surface as a [persist-count] violation. *)
let prop_untimed_count_matches =
  let gen =
    QCheck.Gen.(
      let* fault =
        oneof
          [
            return Campaign.No_fault;
            return Campaign.Drop_all_persists;
            map (fun n -> Campaign.Drop_nth_persist n) (int_range 1 30);
          ]
      in
      let* l2_banks = oneofl [ 1; 4 ] in
      let* seed = int_bound 10_000 in
      let* n_ops = int_range 1 40 in
      return (fault, l2_banks, seed, n_ops))
  in
  QCheck.Test.make ~name:"untimed persist count equals the simulated run's" ~count:20
    (QCheck.make gen ~print:(fun (fault, l2_banks, seed, n_ops) ->
       Printf.sprintf "fault=%s l2_banks=%d seed=%d ops=%d" (Campaign.fault_name fault)
         l2_banks seed n_ops))
    (fun (fault, l2_banks, seed, n_ops) ->
      let specs =
        Result.get_ok
          (Campaign.grid
             ~strategies:Ds_bench.[ Plain; Skipit; Flit_adjacent; Flit_hash 65536; Link_and_persist ]
             ~seed ~n_ops ~fault ())
      in
      List.for_all
        (fun spec ->
          let spec = { spec with Campaign.l2_banks } in
          let counted = (Campaign.run_spec ~budget:0 spec).Campaign.persists in
          let simulated = (Campaign.run_trial spec ~crash_at:None).Campaign.persists in
          counted = simulated
          || QCheck.Test.fail_reportf "%s: counted %d, simulated %d" (Campaign.spec_name spec)
               counted simulated)
        specs)

(* A typed copy reproduces the world it copies: at random boundaries of a
   run, after [copy_into], the live world and its twin marshal (closures
   included) to the same bytes.  Byte equality covers every reachable
   field, the sharing between blocks (a flush-queue entry that is both
   pending and booked) and the bucket order of every hash table.  From
   the second boundary on, the twin has already been crashed and
   finished once, which is how the campaign reuses it; the completed run
   is copied and compared last. *)
let prop_typed_copy_is_faithful =
  let gen =
    QCheck.Gen.(
      let* structure = oneofl Campaign.all_structures in
      let* mode = oneofl Pctx.all_modes in
      let* strategy = oneofl strategies in
      let* fault =
        oneof
          [
            return Campaign.No_fault;
            return Campaign.Drop_all_persists;
            map (fun n -> Campaign.Drop_nth_persist n) (int_range 1 30);
          ]
      in
      let* l2_banks = oneofl [ 1; 4 ] in
      let* seed = int_bound 10_000 in
      let* n_ops = int_range 1 40 in
      let* picks = list_size (int_range 2 5) (int_bound 1_000_000) in
      return ({ Campaign.structure; mode; strategy; fault; seed; n_ops; l2_banks }, picks))
  in
  QCheck.Test.make ~name:"typed copy marshals like the world it copies" ~count:60
    (QCheck.make gen ~print:(fun (spec, picks) ->
       Printf.sprintf "%s l2_banks=%d picks=[%s]" (Campaign.spec_name spec)
         spec.Campaign.l2_banks
         (String.concat ";" (List.map string_of_int picks))))
    (fun (spec, picks) ->
      QCheck.assume (Campaign.compatible spec);
      let full = Campaign.run_trial spec ~crash_at:None in
      let bs =
        List.sort_uniq compare (List.map (fun x -> 1 + (x mod (full.Campaign.persists + 1))) picks)
      in
      let w = Campaign.build spec and twin = Campaign.build spec in
      let image x = Marshal.to_string x [ Marshal.Closures ] in
      let check what =
        Campaign.copy_into ~src:w ~dst:twin;
        let a = image w and b = image twin in
        if a <> b then begin
          let n = min (String.length a) (String.length b) in
          let i = ref 0 in
          while !i < n && a.[!i] = b.[!i] do incr i done;
          QCheck.Test.fail_reportf "%s: images differ (%d vs %d bytes, first at byte %d)" what
            (String.length a) (String.length b) !i
        end;
        ignore (Campaign.finish twin ~crashed:true)
      in
      let pending = ref bs in
      let rec stop () =
        match !pending with
        | b :: rest when Campaign.persist_points w >= b ->
          pending := rest;
          check (Printf.sprintf "boundary %d" b);
          stop ()
        | _ -> false
      in
      ignore (Campaign.run w ~stop);
      check "completed run";
      true)

(* ms-queue/nvtraverse/plain, seed 21, 1 op: the fifth and last persist
   point returns after the last dispatch, so no replay stops at it and the
   trial is the uncrashed one.  Boundary 4 is reached mid-run. *)
let test_boundary_reached_at_completion () =
  let spec = quick_spec ~ops:1 Campaign.Queue Pctx.Nvtraverse Ds_bench.Plain in
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
  let spec = quick_spec ~ops:12 (Campaign.Set Ops.List_set) Pctx.Manual Ds_bench.Plain in
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
      Alcotest.test_case "check cost flat in the persist log" `Quick test_check_cost_flat_in_log;
      Alcotest.test_case "poked NVMM fires the value rules" `Quick test_poked_nvmm_fires;
      Alcotest.test_case "corrupt directory fires the structural rules" `Quick
        test_corrupt_directory_fires;
      QCheck_alcotest.to_alcotest prop_audit_matches_oracle;
      QCheck_alcotest.to_alcotest prop_audit_matches_oracle_l3;
      Alcotest.test_case "campaign clean on default config" `Slow test_campaign_clean;
      Alcotest.test_case "campaign catches seeded fault" `Slow test_campaign_catches_fault;
      Alcotest.test_case "recovery bound stops a body that never ends" `Quick test_recovery_bound;
      Alcotest.test_case "campaign repair past the bound is a repair-hang" `Quick test_repair_hang;
      Alcotest.test_case "a looping snapshot is a snapshot-cycle" `Quick test_snapshot_cycle;
      Alcotest.test_case "boundary reached only at completion" `Quick
        test_boundary_reached_at_completion;
      Alcotest.test_case "copied world shares no mutable state" `Quick
        test_copied_world_is_independent;
      QCheck_alcotest.to_alcotest prop_forked_equals_replay;
      QCheck_alcotest.to_alcotest prop_untimed_count_matches;
      QCheck_alcotest.to_alcotest prop_typed_copy_is_faithful;
      Alcotest.test_case "reproducer rejects bad values" `Quick
        test_reproducer_rejects_bad_values;
      QCheck_alcotest.to_alcotest prop_reproducer_round_trip;
      QCheck_alcotest.to_alcotest prop_boundaries_within_budget;
      QCheck_alcotest.to_alcotest prop_fault_name_round_trip;
      QCheck_alcotest.to_alcotest prop_reproducer_rejects_garbage;
    ]
    @ List.map
        (fun s -> QCheck_alcotest.to_alcotest (prop_crash_repair s))
        Campaign.all_structures )
