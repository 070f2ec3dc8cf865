(* The §4 memory semantics, scenario by scenario (Fig. 5), observed through
   the persist log — the order in which lines actually become durable. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module PL = Skipit_mem.Persist_log

let fresh () =
  let sys = S.create (C.platform ~cores:1 ()) in
  let line () = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  sys, line (), line ()

let test_scenario_a_no_writeback_no_order () =
  (* Fig. 5(a): x := 1; y := 1.  Without writebacks nothing is guaranteed to
     persist at all — both stores stay in the volatile cache. *)
  let sys, x, y = fresh () in
  S.store sys ~core:0 x 1;
  S.store sys ~core:0 y 1;
  Alcotest.(check int) "no persist events" 0 (PL.length (S.persist_log sys));
  S.crash sys;
  Alcotest.(check int) "x lost" 0 (S.persisted_word sys x);
  Alcotest.(check int) "y lost" 0 (S.persisted_word sys y)

let test_scenario_b_writeback_orders_same_line_only () =
  (* Fig. 5(b): x := 1; writeback(x); y := 1; writeback(y).  Writebacks are
     asynchronous and mutually unordered: y may become durable BEFORE x even
     though writeback(x) was issued first.  We exhibit exactly that by
     making x's writeback slow (a sharer in core 1 forces the L2 to probe,
     §5.5) while y's takes the direct path. *)
  let sys = S.create (C.platform ~cores:2 ()) in
  let line () = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  let x = line () and y = line () in
  S.store sys ~core:0 x 1;
  ignore (S.load sys ~core:1 x) (* core 1 shares x: its flush must probe *);
  ignore (S.load sys ~core:0 y) (* pre-warm y so its store hits *);
  S.store sys ~core:0 y 1;
  S.flush sys ~core:0 x;
  S.flush sys ~core:0 y;
  S.fence sys ~core:0;
  let log = S.persist_log sys in
  let tx = Option.get (PL.first_persist_time log x) in
  let ty = Option.get (PL.first_persist_time log y) in
  Alcotest.(check bool)
    (Printf.sprintf "y durable before x despite program order (y=%d, x=%d)" ty tx)
    true (ty < tx);
  Alcotest.(check int) "both values durable after the fence" 1 (S.persisted_word sys x);
  Alcotest.(check int) "both values durable after the fence" 1 (S.persisted_word sys y)

let test_scenario_c_fence_orders_across () =
  (* Fig. 5(c): x := 1; writeback(x); fence(); y := x.  By the time the
     post-fence code runs, x is durable. *)
  let sys, x, _ = fresh () in
  S.store sys ~core:0 x 1;
  S.flush sys ~core:0 x;
  S.fence sys ~core:0;
  let fence_done = S.clock sys ~core:0 in
  let log = S.persist_log sys in
  let tx = Option.get (PL.first_persist_time log x) in
  Alcotest.(check bool) "x durable before the fence retires" true (tx <= fence_done);
  (* The post-fence read sees the (now also durable) value. *)
  Alcotest.(check int) "y = x reads 1" 1 (S.load sys ~core:0 x)

let test_writeback_covers_earlier_writes_to_line () =
  (* writeback(c) covers ALL earlier writes to any c' in the same line. *)
  let sys, x, _ = fresh () in
  S.store sys ~core:0 x 1;
  S.store sys ~core:0 (x + 8) 2;
  S.store sys ~core:0 (x + 56) 3;
  S.flush sys ~core:0 (x + 16) (* any address in the line *);
  S.fence sys ~core:0;
  Alcotest.(check int) "word 0" 1 (S.persisted_word sys x);
  Alcotest.(check int) "word 1" 2 (S.persisted_word sys (x + 8));
  Alcotest.(check int) "word 7" 3 (S.persisted_word sys (x + 56))

let test_writeback_not_ordered_with_later_writes () =
  (* A writeback is NOT ordered with respect to subsequent writes to the
     same line: a store issued after the CBO.X (on BOOM, after its commit)
     must not ride along. *)
  let sys, x, _ = fresh () in
  S.store sys ~core:0 x 1;
  S.clean sys ~core:0 x;
  S.fence sys ~core:0;
  S.store sys ~core:0 x 2 (* after the writeback: stays volatile *);
  Alcotest.(check int) "later write not persisted" 1 (S.persisted_word sys x);
  Alcotest.(check int) "but architecturally visible" 2 (S.peek_word sys x)

let test_fence_drains_all_pending () =
  (* FENCE RW,RW extended per §5.3: every pending writeback, to any line,
     completes before the fence does. *)
  let sys = S.create (C.platform ~cores:1 ()) in
  let lines =
    List.init 16 (fun _ -> Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64)
  in
  List.iteri (fun i a -> S.store sys ~core:0 a (i + 1)) lines;
  List.iter (fun a -> S.flush sys ~core:0 a) lines;
  S.fence sys ~core:0;
  let fence_done = S.clock sys ~core:0 in
  let log = S.persist_log sys in
  List.iter
    (fun a ->
      match PL.first_persist_time log a with
      | Some t -> Alcotest.(check bool) "persist before fence" true (t <= fence_done)
      | None -> Alcotest.fail "line missed")
    lines;
  List.iteri (fun i a -> Alcotest.(check int) "value" (i + 1) (S.persisted_word sys a)) lines

let test_per_core_fence_scope () =
  (* The fence drains the issuing core's flush counter, not other cores'. *)
  let sys = S.create (C.platform ~cores:2 ()) in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  let b = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  S.store sys ~core:0 a 1;
  S.store sys ~core:1 b 2;
  S.flush sys ~core:0 a;
  S.flush sys ~core:1 b;
  let before = S.clock sys ~core:0 in
  S.fence sys ~core:0;
  Alcotest.(check bool) "core0's fence waits for its own writeback" true
    (S.clock sys ~core:0 - before > 50);
  (* Core 1's writeback is still pending as far as its own fence goes. *)
  Alcotest.(check int) "core1 still has one pending" 1
    (Skipit_cpu.Lsu.pending_writebacks (S.lsu sys 1))

let test_persist_log_api () =
  let log = PL.create () in
  PL.record log ~addr:0x44 ~time:10 (* interior address → line 0x40 *);
  PL.record log ~addr:0x80 ~time:5 (* later seq, earlier time *);
  PL.record log ~addr:0x40 ~time:20;
  Alcotest.(check int) "length" 3 (PL.length log);
  Alcotest.(check int) "events per line" 2 (List.length (PL.persists_of log ~addr:0x40));
  Alcotest.(check (option int)) "first time" (Some 10) (PL.first_persist_time log 0x40);
  Alcotest.(check (option int)) "last time" (Some 20) (PL.last_persist_time log 0x40);
  Alcotest.(check bool) "0x80 before 0x40? last(0x80)=5 <= first(0x40)=10" true
    (PL.persisted_before log 0x80 0x40 = PL.Before);
  Alcotest.(check bool) "0x40 not before 0x80" true
    (PL.persisted_before log 0x40 0x80 = PL.Not_before);
  PL.clear log;
  Alcotest.(check int) "cleared" 0 (PL.length log)

let test_persist_log_edges () =
  let log = PL.create () in
  (* Totality: never-persisted operands are reported explicitly, on both
     sides, instead of collapsing into [false]. *)
  Alcotest.(check bool) "both never persisted" true
    (PL.persisted_before log 0x40 0x80 = PL.Never_persisted { a = false; b = false });
  PL.record log ~addr:0x40 ~time:7;
  Alcotest.(check bool) "right side never persisted" true
    (PL.persisted_before log 0x40 0x80 = PL.Never_persisted { a = true; b = false });
  Alcotest.(check bool) "left side never persisted" true
    (PL.persisted_before log 0x80 0x40 = PL.Never_persisted { a = false; b = true });
  (* last_persist_time edges: absent line, then single and repeated events
     (interior addresses map to the line base). *)
  Alcotest.(check (option int)) "no events: no last time" None
    (PL.last_persist_time log 0x80);
  Alcotest.(check (option int)) "single event: last = first" (Some 7)
    (PL.last_persist_time log 0x40);
  PL.record log ~addr:0x78 ~time:9 (* interior of line 0x40 *);
  Alcotest.(check (option int)) "interior address folds to line" (Some 9)
    (PL.last_persist_time log 0x40);
  Alcotest.(check (option int)) "first unchanged" (Some 7)
    (PL.first_persist_time log 0x40)

(* The O(1) per-line count agrees with the event list it summarises, on
   every line touched and one never touched, and resets with the log. *)
let prop_persist_count_matches_events =
  QCheck.Test.make ~name:"persist log count matches per-line events" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_range 0 1023) small_nat))
    (fun records ->
      let log = PL.create () in
      List.iter (fun (addr, time) -> PL.record log ~addr ~time) records;
      let agrees addr = PL.persist_count log ~addr = List.length (PL.persists_of log ~addr) in
      let ok = List.for_all (fun (addr, _) -> agrees addr) records && agrees 4096 in
      PL.clear log;
      ok && List.for_all (fun (addr, _) -> PL.persist_count log ~addr = 0) records)

let tests =
  ( "semantics",
    [
      Alcotest.test_case "Fig5(a): stores alone persist nothing" `Quick
        test_scenario_a_no_writeback_no_order;
      Alcotest.test_case "Fig5(b): writebacks async, per-line" `Quick
        test_scenario_b_writeback_orders_same_line_only;
      Alcotest.test_case "Fig5(c): fence orders across" `Quick test_scenario_c_fence_orders_across;
      Alcotest.test_case "writeback covers earlier same-line writes" `Quick
        test_writeback_covers_earlier_writes_to_line;
      Alcotest.test_case "writeback excludes later writes" `Quick
        test_writeback_not_ordered_with_later_writes;
      Alcotest.test_case "fence drains all pending" `Quick test_fence_drains_all_pending;
      Alcotest.test_case "fence is per-core" `Quick test_per_core_fence_scope;
      Alcotest.test_case "persist log api" `Quick test_persist_log_api;
      Alcotest.test_case "persist log edge cases" `Quick test_persist_log_edges;
      QCheck_alcotest.to_alcotest prop_persist_count_matches_events;
    ] )
