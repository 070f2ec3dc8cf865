(* The software flush-avoidance strategies (§7.4) against the simulated
   hierarchy: each must persist correctly and elide only safe writebacks. *)

module S = Skipit_core.System
module T = Skipit_core.Thread
module C = Skipit_core.Config
module Strategy = Skipit_persist.Strategy
module Mem_port = Skipit_persist.Mem_port
module Ds_bench = Skipit_workload.Ds_bench

let run_task sys f =
  let result = ref None in
  ignore (T.run sys [ { T.core = 0; body = (fun () -> result := Some (f ())) } ]);
  Option.get !result

let fresh ?(skip_it = false) () =
  let sys = S.create (C.platform ~cores:1 ~skip_it ()) in
  sys, Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let persist_roundtrip strategy =
  let sys, a = fresh () in
  run_task sys (fun () ->
    strategy.Strategy.write a 42;
    strategy.Strategy.persist_store a;
    strategy.Strategy.fence ());
  sys, a

let strip = Strategy.lap_strip

let test_persists name mk () =
  let strategy = mk () in
  let sys, a = persist_roundtrip strategy in
  if strategy.Strategy.persistent then
    Alcotest.(check int) (name ^ " persists") 42 (strip (S.persisted_word sys a))
  else Alcotest.(check int) "baseline does not persist" 0 (S.persisted_word sys a)

let test_read_after_write name mk () =
  let strategy = mk () in
  let sys, a = fresh () in
  let v =
    run_task sys (fun () ->
      strategy.Strategy.write a 7;
      strategy.Strategy.read a)
  in
  Alcotest.(check int) (name ^ " read-back") 7 v

let test_cas name mk () =
  let strategy = mk () in
  let sys, a = fresh () in
  let ok, ok2, v =
    run_task sys (fun () ->
      strategy.Strategy.write a 1;
      let ok = strategy.Strategy.cas a ~expected:1 ~desired:2 in
      let ok2 = strategy.Strategy.cas a ~expected:1 ~desired:3 in
      ok, ok2, strategy.Strategy.read a)
  in
  Alcotest.(check bool) (name ^ " cas wins") true ok;
  Alcotest.(check bool) (name ^ " stale cas loses") false ok2;
  Alcotest.(check int) (name ^ " value") 2 v

let flushes sys =
  Option.value ~default:0 (List.assoc_opt "fu.0.submitted" (S.stats_report sys))

let test_flit_elides_redundant () =
  let strategy = Strategy.flit_adjacent () in
  let sys, a = fresh () in
  run_task sys (fun () ->
    strategy.Strategy.write a 1;
    strategy.Strategy.persist_store a;
    strategy.Strategy.fence ();
    (* Load-side persists: the counter is down, no flush should issue. *)
    strategy.Strategy.persist_load a;
    strategy.Strategy.persist_load a;
    strategy.Strategy.fence ());
  Alcotest.(check int) "exactly one writeback issued" 1 (flushes sys)

let test_flit_load_flushes_pending () =
  let strategy = Strategy.flit_adjacent () in
  let sys, a = fresh () in
  run_task sys (fun () ->
    strategy.Strategy.write a 1;
    (* A reader hits the word before the writer's persist point: the
       counter is up, so the load-side persist must flush. *)
    strategy.Strategy.persist_load a;
    strategy.Strategy.fence ());
  Alcotest.(check int) "pending store flushed by the reader" 1 (flushes sys);
  Alcotest.(check int) "value persisted" 1 (S.persisted_word sys a)

let test_lap_elides_redundant () =
  let strategy = Strategy.link_and_persist () in
  let sys, a = fresh () in
  run_task sys (fun () ->
    strategy.Strategy.write a 1;
    strategy.Strategy.persist_store a;
    strategy.Strategy.fence ();
    strategy.Strategy.persist_load a;
    strategy.Strategy.persist_load a;
    strategy.Strategy.fence ());
  Alcotest.(check int) "exactly one writeback issued" 1 (flushes sys)

let test_plain_never_elides () =
  let strategy = Strategy.plain () in
  let sys, a = fresh () in
  run_task sys (fun () ->
    strategy.Strategy.write a 1;
    strategy.Strategy.persist_store a;
    strategy.Strategy.persist_load a;
    strategy.Strategy.persist_load a;
    strategy.Strategy.fence ());
  Alcotest.(check int) "all three issued" 3 (flushes sys)

let test_lap_mark_invisible () =
  let strategy = Strategy.link_and_persist () in
  let sys, a = fresh () in
  let before, after =
    run_task sys (fun () ->
      strategy.Strategy.write a 9;
      let before = strategy.Strategy.read a in
      strategy.Strategy.persist_store a;
      strategy.Strategy.fence ();
      before, strategy.Strategy.read a)
  in
  Alcotest.(check int) "masked before persist" 9 before;
  Alcotest.(check int) "masked after persist" 9 after;
  (* The raw persisted image carries no mark after persist cleared it. *)
  Alcotest.(check int) "persisted image clean... modulo mark" 9
    (strip (S.persisted_word sys a))

let test_flit_hash_collisions_are_safe () =
  (* Two addresses sharing one counter slot: a persist of the unwritten one
     may spuriously flush, but never skips a required writeback. *)
  let sys = S.create (C.platform ~cores:1 ()) in
  let table = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 8 in
  let strategy = Strategy.flit_hash ~table_base:table ~table_slots:1 () in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  let b = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  run_task sys (fun () ->
    strategy.Strategy.write a 1;
    strategy.Strategy.write b 2;
    strategy.Strategy.persist_store a;
    strategy.Strategy.persist_store b;
    strategy.Strategy.fence ());
  (* The shared counter counts both pending stores, so neither store-side
     persist is elided: collisions cost spurious load-side flushes, never a
     missed writeback. *)
  Alcotest.(check int) "a persisted" 1 (S.persisted_word sys a);
  Alcotest.(check int) "b persisted" 2 (S.persisted_word sys b)

let test_skipit_uses_hardware () =
  let strategy = Strategy.skipit_hw () in
  let sys = S.create (C.platform ~cores:1 ~skip_it:true ()) in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  run_task sys (fun () ->
    strategy.Strategy.write a 1;
    strategy.Strategy.persist_store a;
    strategy.Strategy.fence ();
    (* Line is invalid after the flush; reload it, then redundant persists
       are dropped by the skip bit. *)
    ignore (strategy.Strategy.read a);
    strategy.Strategy.persist_load a;
    strategy.Strategy.persist_load a;
    strategy.Strategy.fence ());
  let drops = Option.value ~default:0 (List.assoc_opt "fu.0.skip_dropped" (S.stats_report sys)) in
  Alcotest.(check int) "hardware dropped the redundant pair" 2 drops

let strategies =
  [
    "plain", (fun () -> Strategy.plain ());
    "flit-adjacent", (fun () -> Strategy.flit_adjacent ());
    "link-and-persist", (fun () -> Strategy.link_and_persist ());
    "skipit", (fun () -> Strategy.skipit_hw ());
    "none", (fun () -> Strategy.none ());
  ]

(* Every strategy over either port: the same script of writes, CASes,
   persist points and fences must read back the same values, and leave
   the same raw words (marks and FliT counters included), on the
   simulated hierarchy and on the flat untimed table. *)
let port_specs =
  Ds_bench.[ Plain; Flit_adjacent; Flit_hash 4; Link_and_persist; Skipit; Baseline ]

let port_script port alloc spec =
  let s = Ds_bench.realize spec port alloc in
  let addrs = List.init 3 (fun _ -> Skipit_mem.Allocator.alloc_line alloc ~line_bytes:64) in
  let seen = ref [] in
  let note v = seen := v :: !seen in
  List.iteri
    (fun i a ->
      s.Strategy.write a (10 + i);
      note (s.Strategy.read a);
      s.Strategy.persist_store a;
      note (Bool.to_int (s.Strategy.cas a ~expected:(10 + i) ~desired:(20 + i)));
      note (Bool.to_int (s.Strategy.cas a ~expected:(10 + i) ~desired:(30 + i)));
      s.Strategy.persist_load a;
      note (s.Strategy.read a))
    addrs;
  List.iter (fun a -> s.Strategy.persist_store a) addrs;
  s.Strategy.fence ();
  List.iter (fun a -> note (s.Strategy.read a)) addrs;
  (* Raw words: the data word (with any mark) and the word after it
     (FliT-adjacent's counter). *)
  List.iter (fun a -> note (port.Mem_port.load a); note (port.Mem_port.load (a + 8))) addrs;
  List.rev !seen

let test_ports_agree spec () =
  let sys = S.create (C.platform ~cores:1 ~skip_it:(Ds_bench.wants_skip_it_hw spec) ()) in
  let timed = run_task sys (fun () -> port_script Mem_port.timed (S.allocator sys) spec) in
  let untimed =
    port_script (Mem_port.untimed ()) (Skipit_mem.Allocator.create ()) spec
  in
  Alcotest.(check (list int)) (Ds_bench.spec_name spec ^ " timed = untimed") timed untimed;
  Alcotest.(check (list int))
    (Ds_bench.spec_name spec ^ " reads back what it wrote")
    [ 10; 1; 0; 20; 11; 1; 0; 21; 12; 1; 0; 22; 20; 21; 22 ]
    (List.filteri (fun i _ -> i < 15) untimed)

let tests =
  ( "strategy",
    List.concat_map
      (fun (name, mk) ->
        [
          Alcotest.test_case (name ^ " persist") `Quick (test_persists name mk);
          Alcotest.test_case (name ^ " read-after-write") `Quick (test_read_after_write name mk);
          Alcotest.test_case (name ^ " cas") `Quick (test_cas name mk);
        ])
      strategies
    @ [
        Alcotest.test_case "flit elides redundant" `Quick test_flit_elides_redundant;
        Alcotest.test_case "flit load flushes pending" `Quick test_flit_load_flushes_pending;
        Alcotest.test_case "lap elides redundant" `Quick test_lap_elides_redundant;
        Alcotest.test_case "plain never elides" `Quick test_plain_never_elides;
        Alcotest.test_case "lap mark invisible" `Quick test_lap_mark_invisible;
        Alcotest.test_case "flit-hash collisions safe" `Quick test_flit_hash_collisions_are_safe;
        Alcotest.test_case "skipit uses the hardware" `Quick test_skipit_uses_hardware;
      ]
    @ List.map
        (fun spec ->
          Alcotest.test_case
            (Ds_bench.spec_name spec ^ " ports agree")
            `Quick (test_ports_agree spec))
        port_specs )
