(* L1 data-cache behaviour driven directly: hit/miss paths, upgrades, the
   §5.3 pending-writeback interactions, and probe handling. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module T = Skipit_core.Thread
module Dcache = Skipit_l1.Dcache
open Skipit_tilelink

module FU = Skipit_l1.Flush_unit

(* One CBO.X through [Dcache.cbo], with its parked ack and its outcome
   read back from the flush unit's counters. *)
type cbo = { commit_at : int; ack_at : int; dropped : [ `Skip_bit | `Coalesced | `Executed ] }

let cbo dc ~addr ~kind ~now =
  let fu = Dcache.flush_unit dc in
  let merged () = Skipit_sim.Stats.Registry.get (FU.stats fu) "coalesced" in
  let skips = FU.skip_dropped fu and merges = merged () in
  let commit_at = Dcache.cbo dc ~addr ~kind ~now in
  let dropped =
    if FU.skip_dropped fu > skips then `Skip_bit
    else if merged () > merges then `Coalesced
    else `Executed
  in
  { commit_at; ack_at = Dcache.done_at dc; dropped }

let fresh ?(cores = 2) ?(params_f = Fun.id) () =
  let sys = S.create (params_f (C.platform ~cores ())) in
  sys, S.dcache sys 0, Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let test_load_miss_then_hit () =
  let _, dc, a = fresh () in
  ignore (Dcache.load_word dc ~addr:a ~now:0);
  let t1 = Dcache.done_at dc in
  Alcotest.(check bool) "miss pays the L2/DRAM trip" true (t1 > 50);
  ignore (Dcache.load_word dc ~addr:a ~now:t1);
  let t2 = Dcache.done_at dc in
  Alcotest.(check bool) "hit is a few cycles" true (t2 - t1 < 10)

let test_store_sets_dirty_and_value () =
  let _, dc, a = fresh () in
  let t = Dcache.store dc ~addr:(a + 16) ~value:5 ~now:0 in
  let line = Option.get (Dcache.line_state dc a) in
  Alcotest.(check bool) "dirty" true line.Dcache.dirty;
  Alcotest.(check bool) "Trunk" true (Perm.equal line.Dcache.perm Perm.Trunk);
  Alcotest.(check int) "word placed" 5 (Dcache.peek_word dc (a + 16));
  Alcotest.(check int) "other words zero" 0 (Dcache.peek_word dc a);
  Alcotest.(check bool) "time" true (t > 0)

let test_branch_to_trunk_upgrade () =
  let _, dc, a = fresh () in
  ignore (Dcache.load_word dc ~addr:a ~now:0) (* Branch *);
  let t = Dcache.store dc ~addr:a ~value:1 ~now:1000 in
  Alcotest.(check bool) "upgrade went to L2" true (t - 1000 > 20);
  let line = Option.get (Dcache.line_state dc a) in
  Alcotest.(check bool) "now Trunk" true (Perm.equal line.Dcache.perm Perm.Trunk);
  Alcotest.(check int) "one upgrade counted" 1
    (Skipit_sim.Stats.Registry.get (Dcache.stats dc) "store_upgrades")

let test_cas_semantics () =
  let _, dc, a = fresh () in
  ignore (Dcache.store dc ~addr:a ~value:3 ~now:0);
  let ok = Dcache.cas_word dc ~addr:a ~expected:3 ~desired:4 ~now:500 in
  Alcotest.(check bool) "success" true ok;
  let t1 = Dcache.done_at dc in
  Alcotest.(check bool) "after the request" true (t1 > 500);
  let ok2 = Dcache.cas_word dc ~addr:a ~expected:3 ~desired:5 ~now:t1 in
  Alcotest.(check bool) "failure leaves value" false ok2;
  Alcotest.(check int) "value" 4 (Dcache.peek_word dc a)

let test_cbo_skip_check_disabled () =
  (* With skip_it off the fast drop never fires even when safe. *)
  let sys = S.create (C.platform ~cores:1 ~skip_it:false ()) in
  let dc = S.dcache sys 0 in
  let a = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  ignore (Dcache.load_word dc ~addr:a ~now:0) (* clean + skip set *);
  let r = cbo dc ~addr:a ~kind:Message.Wb_clean ~now:1000 in
  Alcotest.(check bool) "executed, not dropped" true (r.dropped = `Executed)

let coalescing_params p =
  { p with Skipit_cache.Params.coalescing = true; n_fshrs = 1 }

let test_cbo_coalesce () =
  let sys, dc, a = fresh ~params_f:coalescing_params () in
  (* Pin the single FSHR with a writeback of another line so the next
     request waits in the queue, where coalescing applies (§5.3). *)
  let blocker = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64 in
  ignore (Dcache.store dc ~addr:blocker ~value:1 ~now:0);
  ignore (Dcache.store dc ~addr:a ~value:1 ~now:0);
  ignore (cbo dc ~addr:blocker ~kind:Message.Wb_clean ~now:99);
  let r1 = cbo dc ~addr:a ~kind:Message.Wb_clean ~now:100 in
  let r2 = cbo dc ~addr:a ~kind:Message.Wb_clean ~now:105 in
  Alcotest.(check bool) "first executed" true (r1.dropped = `Executed);
  Alcotest.(check bool) "second coalesced" true (r2.dropped = `Coalesced);
  Alcotest.(check int) "same completion" r1.ack_at r2.ack_at

let test_cbo_store_then_no_coalesce () =
  let _, dc, a = fresh ~params_f:coalescing_params () in
  ignore (Dcache.store dc ~addr:a ~value:1 ~now:0);
  let r1 = cbo dc ~addr:a ~kind:Message.Wb_clean ~now:100 in
  (* An intervening store changes the line: §5.3 forbids merging. *)
  let t = Dcache.store dc ~addr:a ~value:2 ~now:(r1.commit_at + 1) in
  let r2 = cbo dc ~addr:a ~kind:Message.Wb_clean ~now:(t + 1) in
  Alcotest.(check bool) "fresh writeback" true (r2.dropped = `Executed)

let test_load_forwarding_after_flush () =
  let _, dc, a = fresh () in
  ignore (Dcache.store dc ~addr:a ~value:9 ~now:0);
  let r = cbo dc ~addr:a ~kind:Message.Wb_flush ~now:100 in
  (* Immediately after the flush commits, the line is gone but the FSHR's
     buffer holds it: the load forwards (§5.3). *)
  let v = Dcache.load_word dc ~addr:a ~now:(r.commit_at + 1) in
  let t = Dcache.done_at dc in
  Alcotest.(check int) "forwarded value" 9 v;
  Alcotest.(check bool) "well before the ack" true (t < r.ack_at);
  Alcotest.(check int) "counted" 1
    (Skipit_sim.Stats.Registry.get (Dcache.stats dc) "load_forwards")

let test_store_blocked_by_pending_flush () =
  let _, dc, a = fresh () in
  ignore (Dcache.store dc ~addr:a ~value:1 ~now:0);
  let r = cbo dc ~addr:a ~kind:Message.Wb_flush ~now:100 in
  (* §5.3: stores to a line with a pending *flush* wait for the ack. *)
  let t = Dcache.store dc ~addr:a ~value:2 ~now:(r.commit_at + 1) in
  Alcotest.(check bool) "store delayed past the ack" true (t >= r.ack_at)

let test_store_proceeds_after_clean_fill () =
  let _, dc, a = fresh () in
  ignore (Dcache.store dc ~addr:a ~value:1 ~now:0);
  let r = cbo dc ~addr:a ~kind:Message.Wb_clean ~now:100 in
  let t = Dcache.store dc ~addr:a ~value:2 ~now:(r.commit_at + 1) in
  Alcotest.(check bool) "store released before the ack (§5.3 clean rule)" true
    (t < r.ack_at);
  Alcotest.(check int) "both values correct" 2 (Dcache.peek_word dc a)

let test_probe_handling () =
  let _, dc, a = fresh () in
  ignore (Dcache.store dc ~addr:a ~value:6 ~now:0);
  let data = Array.make 8 (-1) in
  let r = Dcache.handle_probe dc ~addr:a ~cap:Perm.Branch ~now:100 ~into:data ~off:0 in
  Alcotest.(check bool) "dirty data handed back" true (Port.Reply.flag r);
  Alcotest.(check int) "dirty data handed over" 6 data.(0);
  let line = Option.get (Dcache.line_state dc a) in
  Alcotest.(check bool) "downgraded" true (Perm.equal line.Dcache.perm Perm.Branch);
  Alcotest.(check bool) "clean now" false line.Dcache.dirty;
  (* Probing a line we do not have acks without data. *)
  let untouched = Array.make 8 (-1) in
  let r2 = Dcache.handle_probe dc ~addr:(a + 4096) ~cap:Perm.Nothing ~now:200 ~into:untouched ~off:0 in
  Alcotest.(check bool) "miss probe: no data" false (Port.Reply.flag r2);
  Alcotest.(check (array int)) "miss probe writes nothing" (Array.make 8 (-1)) untouched

let test_probe_blocked_by_fshr () =
  (* §5.4.1: a probe racing an allocated FSHR waits for flush_rdy. *)
  let _, dc, a = fresh () in
  ignore (Dcache.store dc ~addr:a ~value:1 ~now:0);
  let r = cbo dc ~addr:a ~kind:Message.Wb_flush ~now:100 in
  let pending = List.find (fun p -> p.FU.addr = a) (FU.pendings (Dcache.flush_unit dc)) in
  Alcotest.(check int) "the flush's ack" r.ack_at pending.FU.ack_at;
  let probe =
    Dcache.handle_probe dc ~addr:a ~cap:Perm.Nothing ~now:(pending.FU.alloc_at + 1)
      ~into:(Array.make 8 0) ~off:0
  in
  Alcotest.(check bool) "probe completion after release" true
    (Port.Reply.at probe >= pending.FU.release_at)

let test_l1_hit_zero_alloc () =
  (* The bench --profile gate pins the L1 hit path at zero minor-heap words
     per operation; this is the unit-level pin.  Driven through [load_word]
     directly — the Thread effect layer would charge its continuation
     captures to the measurement. *)
  let _, dc, a = fresh () in
  ignore (Dcache.load_word dc ~addr:a ~now:0) (* fill *);
  let now = Dcache.done_at dc in
  (* Warm-up binds the lazily-created stat counters before measuring. *)
  for _ = 1 to 100 do
    ignore (Dcache.load_word dc ~addr:a ~now)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Dcache.load_word dc ~addr:a ~now)
  done;
  let allocated = Gc.minor_words () -. before in
  (* Slack covers only the boxing of [before] itself; any per-hit
     allocation would show up as >= 20k words. *)
  Alcotest.(check bool)
    (Printf.sprintf "0 minor words across 10k L1 hits (saw %.0f)" allocated)
    true (allocated < 64.)

(* The same pin through the scheduler: a task whose instruction is next in
   timestamp order runs it in place, with no effect round trip.  Measured
   inside a lone [run_task] and inside the earlier of two fibers (the other
   sleeps far in the future, so every measured load is dispatched inline). *)
let l1_hit_words a =
  ignore (T.load a) (* fill *);
  for _ = 1 to 100 do
    ignore (T.load a)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (T.load a)
  done;
  Gc.minor_words () -. before

let test_thread_l1_hit_zero_alloc () =
  let sys, _, a = fresh () in
  let lone = T.run_task sys (fun () -> l1_hit_words a) in
  let sys, _, a = fresh () in
  let earliest = ref nan in
  ignore
    (T.run sys
       [
         { T.core = 0; body = (fun () -> earliest := l1_hit_words a) };
         { T.core = 1; body = (fun () -> T.delay 1_000_000_000; ignore (T.load a)) };
       ]);
  List.iter
    (fun (where, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "0 minor words across 10k T.load hits %s (saw %.0f)" where words)
        true (words < 64.))
    [ "in run_task", lone; "as the earlier of two fibers", !earliest ]

(* Words per operation on the miss and write-back paths: 0 on the L2 hit
   and on a DRAM-miss load+flush+fence, 1.5 with a store (OCaml 5.1).  A
   hierarchy transaction takes its MSHRs, FSHR and transaction IDs by
   pick/hold, passes lines by blit, replies in an immediate int, fills a
   cache slot's own line storage in place and keeps a CBO as one row of
   the flush unit's int table, so nothing outlives it on the heap.  The
   1.5 words are the persist log's arrays doubling, amortized: each
   writeback that reaches DRAM records an event there; the pins leave
   half a word of slack for other compiler versions. *)
let words_per_op n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_l1_miss_l2_hit_alloc () =
  let sys, dc, _ = fresh () in
  let lines = 256 in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (lines * 64) in
  (* Core 1 brings every line into the L2; core 0 then misses its L1 and
     hits the L2 on each (256 lines fit its L1 without evictions). *)
  let now = ref 0 and dc1 = S.dcache sys 1 in
  for i = 0 to lines - 1 do
    ignore (Dcache.load_word dc1 ~addr:(base + (i * 64)) ~now:!now);
    now := Dcache.done_at dc1
  done;
  ignore (Dcache.load_word dc ~addr:base ~now:!now);
  let words =
    words_per_op (lines - 1) (fun i ->
      ignore (Dcache.load_word dc ~addr:(base + (i * 64)) ~now:!now);
      now := Dcache.done_at dc)
  in
  Alcotest.(check int) "every load hit the L2" lines
    (Skipit_sim.Stats.Registry.get (Skipit_l2.Inclusive_cache.stats (S.l2 sys)) "hits");
  Alcotest.(check bool)
    (Printf.sprintf "0 minor words per L1-miss/L2-hit load (saw %.1f)" words)
    true (words = 0.)

let test_store_clean_fence_alloc () =
  let _, dc, a = fresh () in
  let now = ref 0 in
  let step i =
    let t = Dcache.store dc ~addr:a ~value:i ~now:!now in
    now := Dcache.fence dc ~now:(Dcache.cbo dc ~addr:a ~kind:Message.Wb_clean ~now:t)
  in
  for i = 1 to 10 do
    step i
  done;
  let words = words_per_op 1000 step in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 minor words per store+clean+fence (saw %.1f)" words)
    true (words <= 2.)

(* A CBO.FLUSH also drops the L2 copy, so every step of the next two pins
   misses to DRAM.  Without Skip It the flush of a clean line is never
   dropped: the automatic-persistence traversal of the Fig. 14 grid. *)
let flush_loop_words ~store =
  let sys, dc, a = fresh ~params_f:(fun p -> { p with Skipit_cache.Params.skip_it = false }) () in
  let now = ref 0 in
  let step i =
    let t =
      if store then Dcache.store dc ~addr:a ~value:i ~now:!now
      else begin
        ignore (Dcache.load_word dc ~addr:a ~now:!now);
        Dcache.done_at dc
      end
    in
    now := Dcache.fence dc ~now:(Dcache.cbo dc ~addr:a ~kind:Message.Wb_flush ~now:t)
  in
  for i = 1 to 10 do
    step i
  done;
  let dram = S.dram sys in
  let reads = Skipit_mem.Dram.reads dram and writes = Skipit_mem.Dram.writes dram in
  let words = words_per_op 1000 step in
  Alcotest.(check int) "every step read DRAM" (reads + 1000) (Skipit_mem.Dram.reads dram);
  Alcotest.(check int)
    (if store then "every flush wrote DRAM" else "no flush wrote DRAM")
    (if store then writes + 1000 else writes)
    (Skipit_mem.Dram.writes dram);
  words

let test_dram_miss_load_flush_fence_alloc () =
  let words = flush_loop_words ~store:false in
  Alcotest.(check bool)
    (Printf.sprintf "0 minor words per DRAM-miss load+flush+fence (saw %.1f)" words)
    true (words = 0.)

let test_store_miss_dirty_flush_fence_alloc () =
  let words = flush_loop_words ~store:true in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 minor words per store-miss+dirty flush+fence (saw %.1f)" words)
    true (words <= 2.)

let test_held_lines_inclusion () =
  let sys, dc, a = fresh () in
  ignore (Dcache.load_word dc ~addr:a ~now:0);
  Alcotest.(check bool) "listed" true
    (List.mem_assoc a (Dcache.held_lines dc));
  Structural.check sys

let tests =
  ( "dcache",
    [
      Alcotest.test_case "load miss/hit" `Quick test_load_miss_then_hit;
      Alcotest.test_case "store dirty+value" `Quick test_store_sets_dirty_and_value;
      Alcotest.test_case "B->T upgrade" `Quick test_branch_to_trunk_upgrade;
      Alcotest.test_case "cas" `Quick test_cas_semantics;
      Alcotest.test_case "skip check gated" `Quick test_cbo_skip_check_disabled;
      Alcotest.test_case "cbo coalescing" `Quick test_cbo_coalesce;
      Alcotest.test_case "store breaks coalescing" `Quick test_cbo_store_then_no_coalesce;
      Alcotest.test_case "load forwards from FSHR" `Quick test_load_forwarding_after_flush;
      Alcotest.test_case "store blocked by flush" `Quick test_store_blocked_by_pending_flush;
      Alcotest.test_case "store freed by clean fill" `Quick test_store_proceeds_after_clean_fill;
      Alcotest.test_case "probe handling" `Quick test_probe_handling;
      Alcotest.test_case "probe blocked by FSHR (§5.4.1)" `Quick test_probe_blocked_by_fshr;
      Alcotest.test_case "L1 hit allocates zero minor words" `Quick test_l1_hit_zero_alloc;
      Alcotest.test_case "T.load L1 hit allocates zero minor words" `Quick
        test_thread_l1_hit_zero_alloc;
      Alcotest.test_case "held lines" `Quick test_held_lines_inclusion;
      Alcotest.test_case "L1-miss/L2-hit load words pinned" `Quick test_l1_miss_l2_hit_alloc;
      Alcotest.test_case "store+clean+fence words pinned" `Quick test_store_clean_fence_alloc;
      Alcotest.test_case "DRAM-miss load+flush+fence words pinned" `Quick
        test_dram_miss_load_flush_fence_alloc;
      Alcotest.test_case "store-miss+dirty flush+fence words pinned" `Quick
        test_store_miss_dirty_flush_fence_alloc;
    ] )
