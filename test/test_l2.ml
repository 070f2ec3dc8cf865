(* Directory bookkeeping and the inclusive L2's RootRelease handling, driven
   directly (the System wires the real probe handler). *)

module S = Skipit_core.System
module C = Skipit_core.Config
module L2 = Skipit_l2.Inclusive_cache
module Directory = Skipit_l2.Directory
module Dram = Skipit_mem.Dram
open Skipit_tilelink

(* The clients above [level], in ascending order, as the probe paths read
   them. *)
let owners ?(exclude = -1) dir level =
  let buf = Array.make 8 (-1) in
  Array.to_list (Array.sub buf 0 (Directory.owners_into dir level ~exclude buf))

let test_directory_owners () =
  let dir = Directory.make ~n_cores:4 ~words:8 in
  Alcotest.(check (list int)) "no owners" [] (owners dir Perm.Nothing);
  Directory.set_owner dir 3 Perm.Branch;
  Directory.set_owner dir 1 Perm.Branch;
  Alcotest.(check (list int)) "sharers" [ 1; 3 ] (owners dir Perm.Nothing);
  Alcotest.(check (list int)) "no trunk" [] (owners dir Perm.Branch);
  Directory.set_owner dir 1 Perm.Trunk;
  Alcotest.(check (list int)) "trunk found" [ 1 ] (owners dir Perm.Branch);
  Directory.set_owner dir 3 Perm.Nothing;
  Alcotest.(check (list int)) "trunk alone" [ 1 ] (owners dir Perm.Nothing);
  Directory.reset dir;
  Alcotest.(check (list int)) "reset drops every owner" [] (owners dir Perm.Nothing)

(* [owners_into] writes ascending core ids, skips [exclude] (and nothing
   for -1), counts only the clients strictly above [level], and touches
   no buffer entry past the count. *)
let test_owners_into () =
  let dir = Directory.make ~n_cores:4 ~words:8 in
  List.iter (fun (core, p) -> Directory.set_owner dir core p)
    [ 3, Perm.Branch; 0, Perm.Branch; 2, Perm.Trunk ];
  let buf = Array.make 6 (-7) in
  Alcotest.(check int) "count, exclude -1" 3
    (Directory.owners_into dir Perm.Nothing ~exclude:(-1) buf);
  Alcotest.(check (array int)) "ascending, rest untouched" [| 0; 2; 3; -7; -7; -7 |] buf;
  Alcotest.(check (list int)) "exclude skips one core" [ 0; 3 ]
    (owners ~exclude:2 dir Perm.Nothing);
  Alcotest.(check (list int)) "exclude of a non-owner skips none" [ 0; 2; 3 ]
    (owners ~exclude:1 dir Perm.Nothing);
  Alcotest.(check (list int)) "strictly above Branch" [ 2 ] (owners dir Perm.Branch);
  Alcotest.(check (list int)) "nothing above Trunk" [] (owners dir Perm.Trunk)

let fresh () =
  let sys = S.create (C.platform ~cores:2 ()) in
  sys, S.l2 sys, Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

(* Acquire into a fresh line buffer; the reply and the granted words. *)
let acquire l2 ~core ~addr ~grow ~now =
  let line = Array.make 8 (-1) in
  let r = L2.acquire l2 ~core ~addr ~grow ~now ~into:line ~off:0 in
  r, line

let test_acquire_grants () =
  let _, l2, a = fresh () in
  let g, line = acquire l2 ~core:0 ~addr:a ~grow:Perm.N_to_B ~now:0 in
  Alcotest.(check (array int)) "fresh line granted" (Array.make 8 0) line;
  Alcotest.(check bool) "fresh line clean (GrantData)" false (Port.Reply.flag g);
  Alcotest.(check bool) "present after" true (L2.present l2 a);
  Alcotest.(check bool) "directory updated" true
    (Perm.equal (L2.owner_perm l2 ~core:0 ~addr:a) Perm.Branch);
  Alcotest.(check bool) "time advanced" true (Port.Reply.at g > 0)

let test_release_data_dirties () =
  let _, l2, a = fresh () in
  ignore (acquire l2 ~core:0 ~addr:a ~grow:Perm.N_to_T ~now:0);
  let data = Array.init 8 (fun i -> i + 1) in
  let t = L2.release l2 ~core:0 ~addr:a ~shrink:Perm.T_to_N ~data ~off:0 ~now:100 in
  Alcotest.(check bool) "ack later" true (t > 100);
  Alcotest.(check bool) "line dirty in L2" true (L2.dir_dirty l2 a);
  Alcotest.(check bool) "owner dropped" true
    (Perm.equal (L2.owner_perm l2 ~core:0 ~addr:a) Perm.Nothing);
  Alcotest.(check int) "L2 serves the data" 1 (L2.peek_word l2 a)

let test_root_release_clean_writes_dram () =
  let sys, l2, a = fresh () in
  ignore (acquire l2 ~core:0 ~addr:a ~grow:Perm.N_to_T ~now:0);
  let data = Array.init 8 (fun i -> 10 + i) in
  let t =
    L2.root_release l2 ~core:0 ~addr:a ~kind:Message.Wb_clean ~data ~off:0 ~now:50
  in
  Alcotest.(check bool) "acked" true (t > 50);
  Alcotest.(check int) "persisted" 10 (Dram.peek_word (S.dram sys) a);
  Alcotest.(check bool) "L2 copy stays (clean)" true (L2.present l2 a);
  Alcotest.(check bool) "L2 no longer dirty" false (L2.dir_dirty l2 a)

let test_root_release_flush_invalidates () =
  let sys, l2, a = fresh () in
  ignore (acquire l2 ~core:0 ~addr:a ~grow:Perm.N_to_T ~now:0);
  let data = Array.init 8 (fun i -> 20 + i) in
  ignore (L2.root_release l2 ~core:0 ~addr:a ~kind:Message.Wb_flush ~data ~off:0 ~now:50);
  Alcotest.(check int) "persisted" 20 (Dram.peek_word (S.dram sys) a);
  Alcotest.(check bool) "L2 copy gone (flush)" false (L2.present l2 a)

let test_trivial_skip () =
  (* §5.5: a RootRelease of a clean line skips the DRAM write via the L2
     dirty bit. *)
  let sys, l2, a = fresh () in
  ignore (S.load sys ~core:0 a) (* clean everywhere *);
  let writes_before = Dram.writes (S.dram sys) in
  ignore (L2.root_release l2 ~core:0 ~addr:a ~kind:Message.Wb_clean ~data:Port.no_data ~off:0 ~now:1000);
  Alcotest.(check int) "no DRAM write" writes_before (Dram.writes (S.dram sys));
  Alcotest.(check bool) "counted as trivial skip" true
    (Skipit_sim.Stats.Registry.get (L2.stats l2) "trivial_skips" >= 1)

let test_root_release_miss_acks () =
  let _, l2, a = fresh () in
  (* Nothing cached anywhere: the ack still comes (§5.2). *)
  let t = L2.root_release l2 ~core:1 ~addr:a ~kind:Message.Wb_flush ~data:Port.no_data ~off:0 ~now:10 in
  Alcotest.(check bool) "ack" true (t > 10)

let test_root_release_probes_other_owner () =
  (* Core 1 issues the writeback; core 0 holds the line dirty.  The L2 must
     probe core 0 and push its data to DRAM (§5.5). *)
  let sys, l2, a = fresh () in
  S.store sys ~core:0 a 77;
  ignore (L2.root_release l2 ~core:1 ~addr:a ~kind:Message.Wb_flush ~data:Port.no_data ~off:0 ~now:5000);
  Alcotest.(check int) "probed dirty data persisted" 77 (Dram.peek_word (S.dram sys) a);
  Alcotest.(check bool) "probe happened" true
    (Skipit_sim.Stats.Registry.get (L2.stats l2) "probes" >= 1);
  Alcotest.(check bool) "core0 revoked" true
    (Skipit_l1.Dcache.line_state (S.dcache sys 0) a = None)

let test_acquire_probes_trunk_owner () =
  let sys, l2, a = fresh () in
  S.store sys ~core:0 a 9 (* core 0: Trunk, dirty *);
  let g, line = acquire l2 ~core:1 ~addr:a ~grow:Perm.N_to_B ~now:5000 in
  Alcotest.(check bool) "grant carries the dirty data" true (line.(0) = 9);
  Alcotest.(check bool) "GrantDataDirty flavour" true (Port.Reply.flag g);
  Alcotest.(check bool) "former owner downgraded" true
    (Perm.equal (L2.owner_perm l2 ~core:0 ~addr:a) Perm.Branch)

let test_l2_eviction_recalls_l1 () =
  (* Inclusion: evicting an L2 victim must revoke the L1 copies.  The tiny
     hierarchy makes L2 conflicts easy to provoke. *)
  let sys = S.create (C.tiny ~cores:1 ()) in
  let l2 = S.l2 sys in
  let l2_geom = (S.params sys).Skipit_cache.Params.l2_geom in
  let sets = l2_geom.Skipit_cache.Geometry.sets in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:(sets * 64) (sets * 64 * 16) in
  (* 16 lines mapping to the same L2 set (ways = 4): forces L2 evictions. *)
  for i = 0 to 15 do
    S.store sys ~core:0 (base + (i * sets * 64)) (100 + i)
  done;
  Structural.check sys;
  Alcotest.(check bool) "L2 evictions happened" true
    (Skipit_sim.Stats.Registry.get (L2.stats l2) "evictions" > 0);
  (* All values remain architecturally visible. *)
  for i = 0 to 15 do
    Alcotest.(check int) "value" (100 + i) (S.load sys ~core:0 (base + (i * sets * 64)))
  done

let test_crash_drops_l2 () =
  let sys, l2, a = fresh () in
  S.store sys ~core:0 a 1;
  ignore (S.load sys ~core:1 a) (* data now in L2, dirty *);
  L2.crash l2;
  Alcotest.(check bool) "gone" false (L2.present l2 a)

let tests =
  ( "l2",
    [
      Alcotest.test_case "directory owners" `Quick test_directory_owners;
      Alcotest.test_case "owners_into order and exclude" `Quick test_owners_into;
      Alcotest.test_case "acquire grants" `Quick test_acquire_grants;
      Alcotest.test_case "release data dirties L2" `Quick test_release_data_dirties;
      Alcotest.test_case "root release clean" `Quick test_root_release_clean_writes_dram;
      Alcotest.test_case "root release flush" `Quick test_root_release_flush_invalidates;
      Alcotest.test_case "trivial skip (§5.5)" `Quick test_trivial_skip;
      Alcotest.test_case "root release on miss acks" `Quick test_root_release_miss_acks;
      Alcotest.test_case "root release probes owner" `Quick test_root_release_probes_other_owner;
      Alcotest.test_case "acquire probes trunk owner" `Quick test_acquire_probes_trunk_owner;
      Alcotest.test_case "L2 eviction recalls L1" `Quick test_l2_eviction_recalls_l1;
      Alcotest.test_case "crash drops L2" `Quick test_crash_drops_l2;
    ] )
