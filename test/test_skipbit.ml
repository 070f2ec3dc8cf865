(* The Skip-It mechanism (§6): GrantData vs GrantDataDirty maintenance, the
   §6.2 safety argument, and end-to-end "skipping never loses data". *)

module S = Skipit_core.System
module C = Skipit_core.Config
module Dcache = Skipit_l1.Dcache
module L2 = Skipit_l2.Inclusive_cache
module Rng = Skipit_sim.Rng

let make ?(cores = 2) () = S.create (C.platform ~cores ~skip_it:true ())
let line sys = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let skip_of sys ~core a =
  match Dcache.line_state (S.dcache sys core) a with
  | Some l -> l.Dcache.skip
  | None -> Alcotest.fail "line not present"

let dirty_of sys ~core a =
  match Dcache.line_state (S.dcache sys core) a with
  | Some l -> l.Dcache.dirty
  | None -> Alcotest.fail "line not present"

let test_grant_clean_sets_skip () =
  let sys = make () in
  let a = line sys in
  ignore (S.load sys ~core:0 a) (* fresh from DRAM: persisted *);
  Alcotest.(check bool) "GrantData => skip set" true (skip_of sys ~core:0 a)

let test_grant_dirty_clears_skip () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  (* Core 1 reads: core 0's dirty data moves to L2 (dirty there), and core 1
     receives GrantDataDirty. *)
  ignore (S.load sys ~core:1 a);
  Alcotest.(check bool) "L2 holds it dirty" true (L2.dir_dirty (S.l2 sys) a);
  Alcotest.(check bool) "GrantDataDirty => skip unset" false (skip_of sys ~core:1 a)

let test_probe_downgrade_clears_skip () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  ignore (S.load sys ~core:1 a);
  (* Core 0 was downgraded Trunk→Branch and handed its dirty data to the
     L2; its copy is clean but NOT persisted, so skip must be unset. *)
  Alcotest.(check bool) "downgraded copy clean" false (dirty_of sys ~core:0 a);
  Alcotest.(check bool) "skip cleared on the downgraded copy" false (skip_of sys ~core:0 a)

let test_clean_sets_skip () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check bool) "post-clean line persisted => skip" true (skip_of sys ~core:0 a)

let drops sys core =
  Option.value ~default:0
    (List.assoc_opt (Printf.sprintf "fu.%d.skip_dropped" core) (S.stats_report sys))

let test_redundant_clean_dropped () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  S.clean sys ~core:0 a;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check int) "both redundant cleans dropped" 2 (drops sys 0);
  Alcotest.(check int) "data persisted exactly once" 5 (S.persisted_word sys a)

let test_store_invalidates_skip_protection () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  (* New store re-dirties the line: the next clean must NOT be dropped. *)
  S.store sys ~core:0 a 6;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check int) "no drop for the dirty line" 0 (drops sys 0);
  Alcotest.(check int) "new value persisted" 6 (S.persisted_word sys a)

let test_drop_after_refetch () =
  (* §6.1: a flush of a line granted clean (GrantData) is dropped. *)
  let sys = make ~cores:1 () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  S.flush sys ~core:0 a;
  S.fence sys ~core:0;
  ignore (S.load sys ~core:0 a) (* refetch: GrantData, skip set *);
  let before = drops sys 0 in
  S.flush sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check int) "flush of persisted line dropped" (before + 1) (drops sys 0)

let test_no_drop_when_l2_dirty () =
  (* Scenario 1 of §6: clean in L1 but dirty in L2 — the writeback MUST be
     issued. *)
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 7;
  ignore (S.load sys ~core:1 a) (* dirty data now (only) in L2 *);
  S.clean sys ~core:1 a;
  S.fence sys ~core:1;
  Alcotest.(check int) "no skip drop" 0 (drops sys 1);
  Alcotest.(check int) "L2's dirty data persisted" 7 (S.persisted_word sys a)

(* End-to-end safety property: under random workloads with Skip It on, after
   every CBO.X + fence the fenced line's architectural value equals its
   persisted value — dropping a writeback never loses data. *)
let prop_drop_never_loses_data =
  QCheck.Test.make ~name:"skip drop never loses data" ~count:15 QCheck.small_int
  @@ fun seed ->
  let sys = S.create { (C.tiny ~cores:2 ()) with Skipit_cache.Params.skip_it = true } in
  let rng = Rng.create ~seed in
  let lines = Array.init 12 (fun _ -> line sys) in
  let ok = ref true in
  for _ = 1 to 250 do
    let core = Rng.int rng 2 in
    let a = lines.(Rng.int rng (Array.length lines)) in
    match Rng.int rng 5 with
    | 0 | 1 -> ignore (S.load sys ~core a)
    | 2 -> S.store sys ~core a (Rng.int rng 1000)
    | 3 ->
      S.clean sys ~core a;
      S.fence sys ~core;
      if S.persisted_word sys a <> S.peek_word sys a then ok := false
    | _ ->
      S.flush sys ~core a;
      S.fence sys ~core;
      if S.persisted_word sys a <> S.peek_word sys a then ok := false
  done;
  !ok && Structural.first_violation sys = None

let tests =
  ( "skip_bit",
    [
      Alcotest.test_case "GrantData sets skip" `Quick test_grant_clean_sets_skip;
      Alcotest.test_case "GrantDataDirty clears skip" `Quick test_grant_dirty_clears_skip;
      Alcotest.test_case "probe downgrade clears skip" `Quick test_probe_downgrade_clears_skip;
      Alcotest.test_case "clean sets skip" `Quick test_clean_sets_skip;
      Alcotest.test_case "redundant clean dropped" `Quick test_redundant_clean_dropped;
      Alcotest.test_case "store re-arms writeback" `Quick test_store_invalidates_skip_protection;
      Alcotest.test_case "drop after refetch" `Quick test_drop_after_refetch;
      Alcotest.test_case "no drop when L2 dirty (§6 scenario 1)" `Quick test_no_drop_when_l2_dirty;
      QCheck_alcotest.to_alcotest prop_drop_never_loses_data;
    ] )
