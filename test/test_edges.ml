(* Edge cases across the stack that the mainline suites do not reach:
   parameter validation, config presets, recall-on-L2-eviction with dirty L1
   data, load nacks on dataless writebacks, skiplist internals. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Geometry = Skipit_cache.Geometry
module Dcache = Skipit_l1.Dcache
open Skipit_tilelink

let test_params_validation () =
  let bad f = Result.is_error (Params.validate (f Params.boom_default)) in
  Alcotest.(check bool) "zero cores" true (bad (fun p -> { p with Params.n_cores = 0 }));
  Alcotest.(check bool) "mismatched lines" true
    (bad (fun p ->
       { p with Params.l2_geom = Geometry.v ~size_bytes:4096 ~ways:2 ~line_bytes:128 }));
  Alcotest.(check bool) "bus must divide line" true
    (bad (fun p -> { p with Params.bus_bytes = 48 }));
  Alcotest.(check bool) "no fshrs" true (bad (fun p -> { p with Params.n_fshrs = 0 }));
  Alcotest.(check bool) "negative queue" true
    (bad (fun p -> { p with Params.flush_queue_depth = -1 }));
  Alcotest.(check bool) "empty stq" true (bad (fun p -> { p with Params.stq_entries = 0 }));
  Alcotest.(check bool) "default valid" true (Result.is_ok (Params.validate Params.boom_default));
  Alcotest.(check bool) "l3 preset valid" true
    (Result.is_ok (Params.validate (Params.with_l3 Params.boom_default)));
  Alcotest.check_raises "System.create validates"
    (Invalid_argument "System.create: n_cores must be positive") (fun () ->
      ignore (S.create { Params.boom_default with Params.n_cores = 0 }))

let test_config_presets () =
  let p = C.platform ~cores:2 ~skip_it:true () in
  Alcotest.(check int) "cores" 2 p.Params.n_cores;
  Alcotest.(check bool) "skip" true p.Params.skip_it;
  Alcotest.(check int) "L1 32KiB" (32 * 1024) p.Params.l1_geom.Geometry.size_bytes;
  Alcotest.(check int) "L2 512KiB" (512 * 1024) p.Params.l2_geom.Geometry.size_bytes;
  Alcotest.(check int) "beats" 4 (Params.data_beats p);
  let tiny = C.tiny () in
  Alcotest.(check bool) "tiny smaller" true
    (tiny.Params.l1_geom.Geometry.size_bytes < 4096);
  Alcotest.(check int) "narrow array cycles" 8
    (Params.fill_buffer_cycles { p with Params.wide_data_array = false })

let test_l2_eviction_recalls_dirty_l1 () =
  (* Force an L2 conflict eviction of a line that is dirty in the L1: the
     recall must preserve the data all the way to DRAM. *)
  let sys = S.create (C.tiny ~cores:1 ()) in
  let sets = (S.params sys).Params.l2_geom.Geometry.sets in
  let stride = sets * 64 in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:stride (stride * 8) in
  (* 8 lines aliasing one L2 set (4 ways); all dirty in L1 (L1 has 2 ways on
     the same set, so L1 evictions interleave too). *)
  for i = 0 to 7 do
    S.store sys ~core:0 (base + (i * stride)) (300 + i)
  done;
  (match S.check_coherence sys with Ok () -> () | Error e -> Alcotest.fail e);
  for i = 0 to 7 do
    Alcotest.(check int) "recalled value" (300 + i) (S.load sys ~core:0 (base + (i * stride)))
  done

let test_load_nack_on_dataless_writeback () =
  (* A clean of a non-dirty line has no data buffer; a load racing it after
     invalidation... a FLUSH of a clean line: no buffer, so the load is
     nacked until the ack (§5.3). *)
  let sys = S.create (C.platform ~cores:1 ()) in
  let dc = S.dcache sys 0 in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  ignore (Dcache.load dc ~addr:a ~now:0) (* clean line in L1 *);
  let commit_at = Dcache.cbo dc ~addr:a ~kind:Message.Wb_flush ~now:1000 in
  let ack_at = Dcache.done_at dc in
  let _, t = Dcache.load dc ~addr:a ~now:(commit_at + 1) in
  Alcotest.(check bool) "load waited for the ack" true (t > ack_at);
  Alcotest.(check bool) "nack counted" true
    (Skipit_sim.Stats.Registry.get (Dcache.stats dc) "load_nacks" >= 1)

let test_skiplist_towers () =
  (* Tower heights are deterministic in the key and bounded. *)
  let module SL = Skipit_pds.Skiplist in
  let sys = S.create (C.platform ~cores:1 ()) in
  let p = Skipit_persist.Pctx.make (Skipit_persist.Strategy.plain ()) Skipit_persist.Pctx.Manual in
  let sl = ref None in
  ignore
    (T.run sys
       [
         {
           T.core = 0;
           body =
             (fun () ->
               let t = SL.create p (S.allocator sys) in
               for k = 1 to 200 do
                 ignore (SL.insert t p k)
               done;
               (* Delete every third key and verify membership via contains. *)
               for k = 1 to 66 do
                 ignore (SL.delete t p (k * 3))
               done;
               for k = 1 to 200 do
                 let want = k mod 3 <> 0 in
                 if SL.contains t p k <> want then
                   Alcotest.failf "skiplist membership wrong at %d" k
               done;
               sl := Some t);
         };
       ]);
  let t = Option.get !sl in
  Alcotest.(check int) "134 keys left" 134 (List.length (SL.elements_unsafe t sys));
  match S.check_coherence sys with Ok () -> () | Error e -> Alcotest.fail e

let test_zero_size_writeback_region () =
  (* A sweep at exactly one line with 8 threads: only thread 0 works. *)
  let cycles =
    Skipit_workload.Micro.(run Params.boom_default (Writeback Message.Wb_flush)) ~threads:8
      ~size:64 ~rep:0
  in
  Alcotest.(check bool) "sane single-line result" true (cycles > 50)

let test_peek_prefers_dirty_copy () =
  let sys = S.create (C.platform ~cores:2 ()) in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  S.poke_word sys a 1;
  ignore (S.load sys ~core:1 a) (* core1 has the stale-free copy *);
  S.store sys ~core:0 a 2 (* core0 now dirty *);
  Alcotest.(check int) "peek returns the dirty copy" 2 (S.peek_word sys a)

let tests =
  ( "edges",
    [
      Alcotest.test_case "params validation" `Quick test_params_validation;
      Alcotest.test_case "config presets" `Quick test_config_presets;
      Alcotest.test_case "L2 eviction recalls dirty L1" `Quick test_l2_eviction_recalls_dirty_l1;
      Alcotest.test_case "load nack on dataless writeback" `Quick test_load_nack_on_dataless_writeback;
      Alcotest.test_case "skiplist towers + membership" `Quick test_skiplist_towers;
      Alcotest.test_case "one-line sweep, 8 threads" `Quick test_zero_size_writeback_region;
      Alcotest.test_case "peek prefers dirty copy" `Quick test_peek_prefers_dirty_copy;
    ] )
