module S = Skipit_core.System
module C = Skipit_core.Config
module Instr = Skipit_cpu.Instr
module Lsu = Skipit_cpu.Lsu

let fresh () =
  let sys = S.create (C.platform ~cores:1 ()) in
  sys, S.lsu sys 0, Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let test_instr_classification () =
  Alcotest.(check (option int)) "load touches" (Some 0) (Instr.touches (Instr.Load { addr = 0 }));
  Alcotest.(check (option int)) "touches" (Some 64)
    (Instr.touches (Instr.Cbo_flush { addr = 64 }));
  Alcotest.(check (option int)) "fence touches nothing" None (Instr.touches Instr.Fence);
  Alcotest.(check (option int)) "delay touches nothing" None (Instr.touches (Instr.Delay 5))

let test_lsu_executes () =
  let _, lsu, a = fresh () in
  ignore (Lsu.exec lsu (Instr.Store { addr = a; value = 3 }));
  let v = Lsu.exec lsu (Instr.Load { addr = a }) in
  Alcotest.(check int) "value through LSU" 3 v;
  Alcotest.(check int) "instruction count" 2 (Lsu.instructions lsu);
  Alcotest.(check bool) "clock advanced" true (Lsu.clock lsu > 0)

let test_cbo_async_commit () =
  let _, lsu, a = fresh () in
  ignore (Lsu.exec lsu (Instr.Store { addr = a; value = 1 }));
  let before = Lsu.clock lsu in
  ignore (Lsu.exec lsu (Instr.Cbo_flush { addr = a }));
  Alcotest.(check bool) "CBO.X advances only to commit" true (Lsu.clock lsu - before < 20);
  Alcotest.(check int) "one pending writeback" 1 (Lsu.pending_writebacks lsu);
  ignore (Lsu.exec lsu Instr.Fence);
  Alcotest.(check int) "drained by the fence" 0 (Lsu.pending_writebacks lsu);
  Alcotest.(check bool) "fence paid the latency" true (Lsu.clock lsu - before > 50)

let test_cas_result_encoding () =
  let _, lsu, a = fresh () in
  ignore (Lsu.exec lsu (Instr.Store { addr = a; value = 2 }));
  Alcotest.(check int) "success = 1" 1
    (Lsu.exec lsu (Instr.Cas { addr = a; expected = 2; desired = 3 }));
  Alcotest.(check int) "failure = 0" 0
    (Lsu.exec lsu (Instr.Cas { addr = a; expected = 2; desired = 4 }))

let test_delay_negative_rejected () =
  let _, lsu, _ = fresh () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Lsu.exec: negative delay")
    (fun () -> ignore (Lsu.exec lsu (Instr.Delay (-1))))

module SQ = Skipit_cpu.Store_queue

let test_store_queue_basics () =
  let q = SQ.create ~entries:2 in
  Alcotest.(check int) "empty" 0 (SQ.occupancy q ~now:0);
  Alcotest.(check int) "insert commits now" 0 (SQ.insert q ~now:0 ~drain_at:100);
  Alcotest.(check int) "second too" 1 (SQ.insert q ~now:1 ~drain_at:90);
  Alcotest.(check int) "occupancy" 2 (SQ.occupancy q ~now:2);
  (* Full: the third insert stalls until the oldest drains. *)
  Alcotest.(check int) "third waits" 100 (SQ.insert q ~now:2 ~drain_at:150);
  (* In-order drain: the 90-cycle store cannot complete before the 100. *)
  Alcotest.(check int) "fence waits for all (in order)" 150 (SQ.drained_at q ~now:2);
  Alcotest.(check int) "drained later" 200 (SQ.drained_at q ~now:200);
  Alcotest.(check int) "pruned" 0 (SQ.occupancy q ~now:200)

(* The ring against the [Queue] implementation it replaced
   ([Ring_models.Store_queue]): times are non-negative cycles, [now] moves
   both ways, small capacities keep the queue full often, and a copy lands
   in a queue with a history of its own. *)
type sq_op = Insert of int * int | Drained of int | Occupancy of int | Copy

let print_sq_op = function
  | Insert (n, d) -> Printf.sprintf "I(%d,%d)" n d
  | Drained n -> Printf.sprintf "D%d" n
  | Occupancy n -> Printf.sprintf "O%d" n
  | Copy -> "C"

let sq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun n d -> Insert (n, d)) (int_range 0 200) (int_range 0 300));
        (2, map (fun n -> Drained n) (int_range 0 200));
        (2, map (fun n -> Occupancy n) (int_range 0 200));
        (1, return Copy);
      ])

let prop_store_queue_ring_matches_queue =
  QCheck.Test.make ~name:"store queue ring matches its Queue model" ~count:500
    (QCheck.make
       ~print:(fun (e, ops) ->
         Printf.sprintf "entries %d: %s" e (String.concat " " (List.map print_sq_op ops)))
       QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 1 120) sq_op_gen)))
  @@ fun (entries, ops) ->
  let module M = Ring_models.Store_queue in
  let r = ref (SQ.create ~entries) and m = ref (M.create ~entries) in
  List.for_all
    (fun op ->
      match op with
      | Insert (now, drain_at) -> SQ.insert !r ~now ~drain_at = M.insert !m ~now ~drain_at
      | Drained now -> SQ.drained_at !r ~now = M.drained_at !m ~now
      | Occupancy now -> SQ.occupancy !r ~now = M.occupancy !m ~now
      | Copy ->
        let r' = SQ.create ~entries and m' = M.create ~entries in
        ignore (SQ.insert r' ~now:3 ~drain_at:400);
        ignore (M.insert m' ~now:3 ~drain_at:400);
        SQ.copy_into ~src:!r ~dst:r';
        M.copy_into ~src:!m ~dst:m';
        r := r';
        m := m';
        true)
    ops
  && SQ.drained_at !r ~now:0 = M.drained_at !m ~now:0

let test_async_store_hides_miss () =
  let sys = S.create (C.platform ~cores:1 ()) in
  let lsu = S.lsu sys 0 in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  let t0 = Lsu.clock lsu in
  ignore (Lsu.exec lsu (Instr.Store { addr = a; value = 1 }));
  Alcotest.(check bool) "store miss hidden by the STQ (§3.2)" true
    (Lsu.clock lsu - t0 < 20);
  Alcotest.(check int) "one store draining" 1 (Lsu.pending_stores lsu);
  ignore (Lsu.exec lsu Instr.Fence);
  Alcotest.(check bool) "fence exposes the drain" true (Lsu.clock lsu - t0 > 50);
  Alcotest.(check int) "drained" 0 (Lsu.pending_stores lsu)

let test_sync_store_blocks () =
  let params =
    { (C.platform ~cores:1 ()) with Skipit_cache.Params.async_stores = false }
  in
  let sys = S.create params in
  let lsu = S.lsu sys 0 in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  let t0 = Lsu.clock lsu in
  ignore (Lsu.exec lsu (Instr.Store { addr = a; value = 1 }));
  Alcotest.(check bool) "synchronous store pays the miss" true (Lsu.clock lsu - t0 > 50);
  Alcotest.(check int) "nothing pending" 0 (Lsu.pending_stores lsu)

let tests =
  ( "cpu",
    [
      Alcotest.test_case "instr classification" `Quick test_instr_classification;
      Alcotest.test_case "lsu executes" `Quick test_lsu_executes;
      Alcotest.test_case "CBO.X async commit" `Quick test_cbo_async_commit;
      Alcotest.test_case "cas encoding" `Quick test_cas_result_encoding;
      Alcotest.test_case "negative delay rejected" `Quick test_delay_negative_rejected;
      Alcotest.test_case "store queue basics" `Quick test_store_queue_basics;
      QCheck_alcotest.to_alcotest prop_store_queue_ring_matches_queue;
      Alcotest.test_case "async store hides miss (§3.2)" `Quick test_async_store_hides_miss;
      Alcotest.test_case "sync-store ablation blocks" `Quick test_sync_store_blocks;
    ] )
