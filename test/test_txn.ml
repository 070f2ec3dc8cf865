(* Durable transactions: atomicity under crash injection at every phase
   boundary, plus the MS queue's durability. *)

module S = Skipit_core.System
module T = Skipit_core.Thread
module C = Skipit_core.Config
module Txn = Skipit_persist.Txn
module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Ms_queue = Skipit_pds.Ms_queue
module Rng = Skipit_sim.Rng

let run_task sys f =
  let r = ref None in
  ignore (T.run sys [ { T.core = 0; body = (fun () -> r := Some (f ())) } ]);
  Option.get !r

let fresh () =
  let sys = S.create (C.platform ~cores:1 ~skip_it:true ()) in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  let b = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  sys, a, b

let test_commit_is_durable () =
  let sys, a, b = fresh () in
  let txn = run_task sys (fun () -> Txn.create (S.allocator sys) ~capacity:8) in
  run_task sys (fun () ->
    Txn.execute txn (fun tx ->
      Txn.write tx a 1;
      Txn.write tx b 2));
  S.crash sys;
  Alcotest.(check int) "a durable" 1 (S.persisted_word sys a);
  Alcotest.(check int) "b durable" 2 (S.persisted_word sys b)

let test_reads_see_own_writes () =
  let sys, a, _ = fresh () in
  let txn = run_task sys (fun () -> Txn.create (S.allocator sys) ~capacity:4) in
  let seen = run_task sys (fun () ->
    let seen = ref (-1) in
    Txn.execute txn (fun tx ->
      Txn.write tx a 5;
      seen := Txn.read tx a);
    !seen)
  in
  Alcotest.(check int) "read-your-writes" 5 seen;
  Alcotest.(check int) "applied" 5 (S.peek_word sys a)

(* Crash after [steps] commit phases, recover, check atomicity. *)
let crash_at_phase steps =
  let sys, a, b = fresh () in
  run_task sys (fun () ->
    T.store a 100;
    T.clean a;
    T.store b 200;
    T.clean b;
    T.fence ());
  let txn = run_task sys (fun () -> Txn.create (S.allocator sys) ~capacity:8) in
  run_task sys (fun () ->
    Txn.execute_steps txn ~steps (fun tx ->
      Txn.write tx a 101;
      Txn.write tx b 201));
  S.crash sys;
  let outcome = run_task sys (fun () -> Txn.recover txn) in
  let va = S.persisted_word sys a and vb = S.persisted_word sys b in
  outcome, va, vb

let test_crash_before_mark_discards () =
  List.iter
    (fun steps ->
      let outcome, va, vb = crash_at_phase steps in
      Alcotest.(check bool) "nothing to replay" true (outcome = `Nothing);
      Alcotest.(check int) "a old" 100 va;
      Alcotest.(check int) "b old" 200 vb)
    [ 0; 1 ]

let test_crash_after_mark_replays () =
  List.iter
    (fun steps ->
      let outcome, va, vb = crash_at_phase steps in
      Alcotest.(check bool) "replayed both" true (outcome = `Replayed 2);
      Alcotest.(check int) "a new" 101 va;
      Alcotest.(check int) "b new" 201 vb)
    [ 2; 3 ]

let test_full_commit_then_crash () =
  let outcome, va, vb = crash_at_phase 4 in
  Alcotest.(check bool) "log already retired" true (outcome = `Nothing);
  Alcotest.(check int) "a new" 101 va;
  Alcotest.(check int) "b new" 201 vb

let test_atomicity_never_partial () =
  (* At no crash point may exactly one of the two writes be visible. *)
  List.iter
    (fun steps ->
      let _, va, vb = crash_at_phase steps in
      let both_old = va = 100 && vb = 200 in
      let both_new = va = 101 && vb = 201 in
      Alcotest.(check bool)
        (Printf.sprintf "atomic at phase %d (got a=%d b=%d)" steps va vb)
        true (both_old || both_new))
    [ 0; 1; 2; 3; 4 ]

let test_capacity_guard () =
  let sys, a, _ = fresh () in
  let txn = run_task sys (fun () -> Txn.create (S.allocator sys) ~capacity:1) in
  run_task sys (fun () ->
    Txn.execute txn (fun tx ->
      Txn.write tx a 1;
      Txn.write tx a 2 (* same address: rewrites, no extra slot *);
      (try
         Txn.write tx (a + 8) 3;
         Alcotest.fail "capacity not enforced"
       with Invalid_argument _ -> ())));
  Alcotest.(check int) "last buffered value wins" 2 (S.peek_word sys a)

(* MS queue. *)

let mk_queue sys = run_task sys (fun () ->
  Ms_queue.create (Pctx.make (Strategy.skipit_hw ()) Pctx.Nvtraverse) (S.allocator sys))

let test_queue_fifo () =
  let sys, _, _ = fresh () in
  let p = Pctx.make (Strategy.skipit_hw ()) Pctx.Nvtraverse in
  let q = mk_queue sys in
  run_task sys (fun () ->
    Alcotest.(check (list int)) "empty at start" [] (Ms_queue.to_list_unsafe q sys);
    List.iter (fun v -> Ms_queue.enqueue q p v) [ 3; 1; 4; 1; 5 ];
    Alcotest.(check (list int)) "snapshot order" [ 3; 1; 4; 1; 5 ]
      (Ms_queue.to_list_unsafe q sys);
    Alcotest.(check (option int)) "deq 1" (Some 3) (Ms_queue.dequeue q p);
    Alcotest.(check (option int)) "deq 2" (Some 1) (Ms_queue.dequeue q p);
    Ms_queue.enqueue q p 9;
    Alcotest.(check (option int)) "deq 3" (Some 4) (Ms_queue.dequeue q p);
    Alcotest.(check (option int)) "deq 4" (Some 1) (Ms_queue.dequeue q p);
    Alcotest.(check (option int)) "deq 5" (Some 5) (Ms_queue.dequeue q p);
    Alcotest.(check (option int)) "deq 6" (Some 9) (Ms_queue.dequeue q p);
    Alcotest.(check (option int)) "drained" None (Ms_queue.dequeue q p))

let test_queue_concurrent_producers () =
  let sys = S.create (C.platform ~cores:2 ~skip_it:true ()) in
  let p = Pctx.make (Strategy.skipit_hw ()) Pctx.Nvtraverse in
  let q = mk_queue sys in
  let producer core =
    {
      T.core;
      body = (fun () -> for i = 1 to 30 do Ms_queue.enqueue q p ((core * 1000) + i) done);
    }
  in
  ignore (T.run sys [ producer 0; producer 1 ]);
  let all = Ms_queue.to_list_unsafe q sys in
  Alcotest.(check int) "all 60 present" 60 (List.length all);
  (* Per-producer FIFO order preserved. *)
  let per core = List.filter (fun v -> v / 1000 = core) all in
  List.iter
    (fun core ->
      let mine = per core in
      Alcotest.(check (list int)) "producer order preserved"
        (List.sort compare mine) mine)
    [ 0; 1 ];
  Structural.check sys

let test_queue_durability () =
  let sys, _, _ = fresh () in
  let p = Pctx.make (Strategy.plain ()) Pctx.Nvtraverse in
  let q = run_task sys (fun () -> Ms_queue.create p (S.allocator sys)) in
  run_task sys (fun () ->
    List.iter (fun v -> Ms_queue.enqueue q p v) [ 1; 2; 3 ];
    ignore (Ms_queue.dequeue q p));
  let before = Ms_queue.to_list_unsafe q sys in
  S.crash sys;
  Alcotest.(check (list int)) "fenced queue state survives" before
    (Ms_queue.to_list_unsafe q sys)

let prop_queue_oracle =
  QCheck.Test.make ~name:"queue matches Queue oracle" ~count:15 QCheck.small_int
  @@ fun seed ->
  let sys = S.create (C.platform ~cores:1 ~skip_it:true ()) in
  let p = Pctx.make (Strategy.flit_adjacent ()) Pctx.Automatic in
  let q = run_task sys (fun () -> Ms_queue.create p (S.allocator sys)) in
  let oracle = Queue.create () in
  let rng = Rng.create ~seed in
  let ok = ref true in
  run_task sys (fun () ->
    for _ = 1 to 120 do
      if Rng.bool rng then begin
        let v = 1 + Rng.int rng 1000 in
        Ms_queue.enqueue q p v;
        Queue.add v oracle
      end
      else begin
        let got = Ms_queue.dequeue q p in
        let want = Queue.take_opt oracle in
        if got <> want then ok := false
      end
    done);
  !ok

let tests =
  ( "txn",
    [
      Alcotest.test_case "commit is durable" `Quick test_commit_is_durable;
      Alcotest.test_case "read your writes" `Quick test_reads_see_own_writes;
      Alcotest.test_case "crash before mark discards" `Quick test_crash_before_mark_discards;
      Alcotest.test_case "crash after mark replays" `Quick test_crash_after_mark_replays;
      Alcotest.test_case "full commit retires log" `Quick test_full_commit_then_crash;
      Alcotest.test_case "atomicity at every phase" `Quick test_atomicity_never_partial;
      Alcotest.test_case "capacity guard" `Quick test_capacity_guard;
      Alcotest.test_case "ms-queue fifo" `Quick test_queue_fifo;
      Alcotest.test_case "ms-queue concurrent producers" `Quick test_queue_concurrent_producers;
      Alcotest.test_case "ms-queue durability" `Quick test_queue_durability;
      QCheck_alcotest.to_alcotest prop_queue_oracle;
    ] )
