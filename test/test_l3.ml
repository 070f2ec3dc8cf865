(* The memory-side L3 (deeper-hierarchy extension): standalone behaviour and
   full-system integration, especially the skip-bit invariant one level
   deeper. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module Params = Skipit_cache.Params
module Memside = Skipit_l2.Memside_cache
module Geometry = Skipit_cache.Geometry
module Dram = Skipit_mem.Dram
module Port = Skipit_tilelink.Port

let make_l3 ?(geom = Geometry.v ~size_bytes:4096 ~ways:4 ~line_bytes:64) () =
  let dram =
    Dram.create ~channels:2 ~read_latency:8 ~write_latency:6 ~occupancy:2 ~line_bytes:64
  in
  let below = Skipit_l2.Backend.of_dram ~name:"l3.dram" ~beats_per_line:4 dram in
  ( Memside.create ~geom ~access_latency:10 ~banks:2 ~bank_busy:2 ~below ~beats_per_line:4 (),
    dram )

(* A line read through the memside port: (data, available_at, dirty_below). *)
let read_line b ~addr ~now =
  let data = Array.make 8 (-1) in
  let r = Port.Memside.read_line b ~addr ~now ~into:data in
  data, Port.Reply.at r, Port.Reply.flag r

let test_read_caches () =
  let l3, dram = make_l3 () in
  let b = Memside.backend l3 in
  Dram.poke_word dram 0x40 9;
  let data, t1, dirty = read_line b ~addr:0x40 ~now:0 in
  Alcotest.(check int) "value from DRAM" 9 data.(0);
  Alcotest.(check bool) "clean" false dirty;
  Alcotest.(check bool) "first read slow" true (t1 > 10);
  let _, t2, _ = read_line b ~addr:0x40 ~now:1000 in
  Alcotest.(check bool) "second read hits L3" true (t2 - 1000 < t1);
  Alcotest.(check int) "hit counted" 1 (Skipit_sim.Stats.Registry.get (Memside.stats l3) "hits")

let test_writeback_lodges_dirty () =
  let l3, dram = make_l3 () in
  let b = Memside.backend l3 in
  let data = Array.make 8 5 in
  ignore (Port.Memside.write_line b ~addr:0x40 ~data ~now:0);
  Alcotest.(check bool) "dirty in L3" true (Memside.dirty l3 0x40);
  Alcotest.(check int) "not yet in DRAM" 0 (Dram.peek_word dram 0x40);
  (* A read now reports dirty-below. *)
  let v, _, dirty = read_line b ~addr:0x40 ~now:10 in
  Alcotest.(check bool) "dirty reported" true dirty;
  Alcotest.(check int) "freshest data" 5 v.(0)

let test_persist_writes_through () =
  let l3, dram = make_l3 () in
  let b = Memside.backend l3 in
  ignore (Port.Memside.write_line b ~addr:0x40 ~data:(Array.make 8 5) ~now:0);
  ignore (Port.Memside.persist_line b ~addr:0x40 ~data:(Array.make 8 6) ~now:10);
  Alcotest.(check int) "durable" 6 (Dram.peek_word dram 0x40);
  Alcotest.(check bool) "L3 copy clean after" false (Memside.dirty l3 0x40)

let test_persist_if_dirty () =
  let l3, dram = make_l3 () in
  let b = Memside.backend l3 in
  ignore (Port.Memside.write_line b ~addr:0x40 ~data:(Array.make 8 7) ~now:0);
  ignore (Port.Memside.persist_if_dirty b ~addr:0x40 ~now:5);
  Alcotest.(check int) "pushed" 7 (Dram.peek_word dram 0x40);
  (* Clean or absent lines are no-ops. *)
  let t = Port.Memside.persist_if_dirty b ~addr:0x80 ~now:5 in
  Alcotest.(check int) "absent = free" 5 t

let test_eviction_writes_back () =
  (* 4 sets x 4 ways with line 64: fill one set beyond capacity. *)
  let geom = Geometry.v ~size_bytes:(4 * 4 * 64) ~ways:4 ~line_bytes:64 in
  let l3, dram = make_l3 ~geom () in
  let b = Memside.backend l3 in
  let stride = geom.Geometry.sets * 64 in
  for i = 0 to 5 do
    ignore (Port.Memside.write_line b ~addr:(i * stride) ~data:(Array.make 8 (i + 1)) ~now:(i * 10))
  done;
  Alcotest.(check bool) "evictions happened" true
    (Skipit_sim.Stats.Registry.get (Memside.stats l3) "evictions" >= 2);
  (* Every value must be recoverable (from L3 or DRAM). *)
  for i = 0 to 5 do
    let v, _, _ = read_line b ~addr:(i * stride) ~now:1000 in
    Alcotest.(check int) "value survives eviction" (i + 1) v.(0)
  done;
  Alcotest.(check bool) "dirty evictions reached DRAM" true (Dram.writes dram >= 2)

let with_l3_platform ?(skip_it = true) () =
  S.create (Params.with_l3 (C.platform ~cores:2 ~skip_it ()))

let line sys = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let test_system_flush_through_l3 () =
  let sys = with_l3_platform () in
  let a = line sys in
  S.store sys ~core:0 a 11;
  S.flush sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check int) "durable through L3" 11 (S.persisted_word sys a);
  Structural.check sys

let test_skip_invariant_with_dirty_l3 () =
  (* Line dirty only in the L3 (L2 evicted it); a refetch must grant
     GrantDataDirty so the skip bit stays safe, and a clean must push the
     L3's data to DRAM. *)
  let sys = with_l3_platform () in
  let params = S.params sys in
  let l2_geom = params.Params.l2_geom in
  let sets = l2_geom.Geometry.sets in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:(sets * 64) (sets * 64 * 12) in
  (* Dirty 12 lines aliasing to one L2 set (8 ways): L2 evicts some into
     the L3, where they sit dirty. *)
  for i = 0 to 11 do
    S.store sys ~core:0 (base + (i * sets * 64)) (200 + i)
  done;
  let l3 = Option.get (S.l3 sys) in
  let dirty_in_l3 =
    List.filter
      (fun i ->
        let a = base + (i * sets * 64) in
        Memside.dirty l3 a && not (Skipit_l2.Inclusive_cache.present (S.l2 sys) a))
      (List.init 12 Fun.id)
  in
  Alcotest.(check bool) "some line is dirty only in L3" true (dirty_in_l3 <> []);
  let i = List.hd dirty_in_l3 in
  let a = base + (i * sets * 64) in
  (* Refetch: the L1's skip bit must NOT be set (data is not durable). *)
  ignore (S.load sys ~core:1 a);
  (match Skipit_l1.Dcache.line_state (S.dcache sys 1) a with
   | Some l -> Alcotest.(check bool) "skip unset for dirty-below line" false l.Skipit_l1.Dcache.skip
   | None -> Alcotest.fail "line not installed");
  Structural.check sys;
  (* And a clean must make it durable even though the L2 copy is clean. *)
  S.clean sys ~core:1 a;
  S.fence sys ~core:1;
  Alcotest.(check int) "L3's dirty data persisted" (200 + i) (S.persisted_word sys a)

let test_crash_clears_l3 () =
  let sys = with_l3_platform () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  (* Push the dirty line into the L3 only. *)
  S.inval sys ~core:0 a (* discards — use a writeback instead *);
  S.store sys ~core:0 a 6;
  S.crash sys;
  let l3 = Option.get (S.l3 sys) in
  Alcotest.(check bool) "L3 volatile" false (Memside.present l3 a);
  Alcotest.(check int) "unflushed store lost" 0 (S.persisted_word sys a)

let test_l3_latency_visible () =
  (* A flush is slower through the L3 than straight to DRAM. *)
  let flush_cycles params =
    let sys = S.create params in
    let a = line sys in
    S.store sys ~core:0 a 1;
    let t0 = S.clock sys ~core:0 in
    S.flush sys ~core:0 a;
    S.fence sys ~core:0;
    S.clock sys ~core:0 - t0
  in
  let flat = flush_cycles (C.platform ~cores:1 ()) in
  let deep = flush_cycles (Params.with_l3 (C.platform ~cores:1 ())) in
  Alcotest.(check bool)
    (Printf.sprintf "deeper hierarchy costs more (%d vs %d)" deep flat)
    true (deep > flat)

let tests =
  ( "l3",
    [
      Alcotest.test_case "read caches" `Quick test_read_caches;
      Alcotest.test_case "writeback lodges dirty" `Quick test_writeback_lodges_dirty;
      Alcotest.test_case "persist writes through" `Quick test_persist_writes_through;
      Alcotest.test_case "persist_if_dirty" `Quick test_persist_if_dirty;
      Alcotest.test_case "eviction writes back" `Quick test_eviction_writes_back;
      Alcotest.test_case "system flush through L3" `Quick test_system_flush_through_l3;
      Alcotest.test_case "skip invariant with dirty L3" `Quick test_skip_invariant_with_dirty_l3;
      Alcotest.test_case "crash clears L3" `Quick test_crash_clears_l3;
      Alcotest.test_case "L3 latency visible" `Quick test_l3_latency_visible;
    ] )
