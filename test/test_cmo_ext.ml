(* The CMO extension instructions CBO.INVAL and CBO.ZERO. *)

module S = Skipit_core.System
module C = Skipit_core.Config

let make ?(cores = 2) () = S.create (C.platform ~cores ())
let line sys = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let check_ok sys =
  Structural.check sys

let test_inval_discards_dirty () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 42;
  S.inval sys ~core:0 a;
  Alcotest.(check int) "dirty data forfeited" 0 (S.peek_word sys a);
  Alcotest.(check int) "never persisted" 0 (S.persisted_word sys a);
  check_ok sys

let test_inval_keeps_persisted_value () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 7;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  S.store sys ~core:0 a 8 (* volatile update after the writeback *);
  S.inval sys ~core:0 a;
  Alcotest.(check int) "reverts to the persisted value" 7 (S.load sys ~core:0 a);
  check_ok sys

let test_inval_revokes_other_cores () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  ignore (S.load sys ~core:1 a) (* both share *);
  S.inval sys ~core:1 a (* issued by the non-owner *);
  Alcotest.(check bool) "core0 revoked" true
    (Skipit_l1.Dcache.line_state (S.dcache sys 0) a = None);
  Alcotest.(check bool) "core1 revoked" true
    (Skipit_l1.Dcache.line_state (S.dcache sys 1) a = None);
  Alcotest.(check bool) "L2 dropped it" false
    (Skipit_l2.Inclusive_cache.present (S.l2 sys) a);
  check_ok sys

let test_inval_of_uncached_line () =
  let sys = make () in
  let a = line sys in
  S.poke_word sys a 3;
  S.inval sys ~core:0 a (* nothing cached: a no-op on state *);
  Alcotest.(check int) "memory untouched" 3 (S.persisted_word sys a);
  check_ok sys

let test_inval_waits_for_pending_writeback () =
  (* An inval racing a pending flush must not discard the data the flush is
     committed to persist. *)
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 9;
  S.flush sys ~core:0 a (* asynchronous *);
  S.inval sys ~core:0 a (* must wait for the writeback's ack *);
  Alcotest.(check int) "flushed data still persisted" 9 (S.persisted_word sys a);
  check_ok sys

let test_zero_fills_line () =
  let sys = make () in
  let a = line sys in
  for w = 0 to 7 do
    S.store sys ~core:0 (a + (w * 8)) (w + 1)
  done;
  S.zero sys ~core:0 a;
  for w = 0 to 7 do
    Alcotest.(check int) "word zeroed" 0 (S.load sys ~core:0 (a + (w * 8)))
  done;
  check_ok sys

let test_zero_is_dirty_until_written_back () =
  let sys = make () in
  let a = line sys in
  S.poke_word sys a 77;
  S.zero sys ~core:0 a;
  Alcotest.(check int) "DRAM still has the old value" 77 (S.persisted_word sys a);
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check int) "zeros persisted after clean+fence" 0 (S.persisted_word sys a);
  check_ok sys

let test_zero_acquires_exclusive () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:1 a 4 (* core 1 owns it *);
  S.zero sys ~core:0 a;
  Alcotest.(check bool) "former owner revoked" true
    (Skipit_l1.Dcache.line_state (S.dcache sys 1) a = None);
  Alcotest.(check int) "coherent zero visible" 0 (S.load sys ~core:1 a);
  check_ok sys

let test_stats_counted () =
  let sys = make () in
  let a = line sys in
  S.inval sys ~core:0 a;
  S.zero sys ~core:0 a;
  let report = S.stats_report sys in
  let get k = Option.value ~default:0 (List.assoc_opt k report) in
  Alcotest.(check int) "inval counted" 1 (get "l1.0.cbo_invals");
  Alcotest.(check int) "zero counted" 1 (get "l1.0.cbo_zeros");
  Alcotest.(check int) "L2 saw the inval" 1 (get "l2.root_invals")

let tests =
  ( "cmo_ext",
    [
      Alcotest.test_case "inval discards dirty data" `Quick test_inval_discards_dirty;
      Alcotest.test_case "inval reverts to persisted" `Quick test_inval_keeps_persisted_value;
      Alcotest.test_case "inval revokes all cores" `Quick test_inval_revokes_other_cores;
      Alcotest.test_case "inval of uncached line" `Quick test_inval_of_uncached_line;
      Alcotest.test_case "inval waits for pending writeback" `Quick
        test_inval_waits_for_pending_writeback;
      Alcotest.test_case "zero fills the line" `Quick test_zero_fills_line;
      Alcotest.test_case "zero is volatile until written back" `Quick
        test_zero_is_dirty_until_written_back;
      Alcotest.test_case "zero acquires exclusivity" `Quick test_zero_acquires_exclusive;
      Alcotest.test_case "stats counted" `Quick test_stats_counted;
    ] )
