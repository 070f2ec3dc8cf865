(* Full-system integration: coherence, persistence and CBO.X semantics
   across cores. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module Rng = Skipit_sim.Rng

let make ?(cores = 2) ?(skip_it = false) ?(tiny = false) () =
  let params = if tiny then C.tiny ~cores () else C.platform ~cores ~skip_it () in
  let params = { params with Skipit_cache.Params.skip_it } in
  S.create params

let line sys = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let test_store_load_roundtrip () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 7;
  Alcotest.(check int) "same core" 7 (S.load sys ~core:0 a);
  Alcotest.(check int) "other word still 0" 0 (S.load sys ~core:0 (a + 8));
  Structural.check sys

let test_cross_core_coherence () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 1;
  (* Core 1's load probes core 0's Trunk copy. *)
  Alcotest.(check int) "core1 sees the store" 1 (S.load sys ~core:1 a);
  Structural.check sys;
  (* Core 1's store revokes core 0's copy; core 0 re-reads the new value. *)
  S.store sys ~core:1 a 2;
  Structural.check sys;
  Alcotest.(check int) "core0 sees core1's store" 2 (S.load sys ~core:0 a)

let test_cas () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 5;
  Alcotest.(check bool) "cas succeeds" true (S.cas sys ~core:1 a ~expected:5 ~desired:6);
  Alcotest.(check bool) "stale cas fails" false (S.cas sys ~core:0 a ~expected:5 ~desired:7);
  Alcotest.(check int) "value" 6 (S.load sys ~core:0 a)

let test_flush_persists_and_invalidates () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 11;
  Alcotest.(check int) "not yet persisted" 0 (S.persisted_word sys a);
  S.flush sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check int) "persisted" 11 (S.persisted_word sys a);
  (* Invalidated everywhere: the re-read must pay a DRAM refetch. *)
  let t0 = S.clock sys ~core:0 in
  Alcotest.(check int) "value survives" 11 (S.load sys ~core:0 a);
  Alcotest.(check bool) "read was a full miss" true (S.clock sys ~core:0 - t0 > 50);
  Structural.check sys

let test_clean_persists_keeps_line () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 12;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  Alcotest.(check int) "persisted" 12 (S.persisted_word sys a);
  let t0 = S.clock sys ~core:0 in
  Alcotest.(check int) "still cached" 12 (S.load sys ~core:0 a);
  Alcotest.(check bool) "read was a hit" true (S.clock sys ~core:0 - t0 < 10);
  Structural.check sys

let test_cross_core_writeback () =
  (* §5.5: flushing a line that is dirty in ANOTHER core must probe it and
     persist its data. *)
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 21;
  S.flush sys ~core:1 a (* core 1 misses; core 0 holds it dirty *);
  S.fence sys ~core:1;
  Alcotest.(check int) "other core's dirty data persisted" 21 (S.persisted_word sys a);
  Structural.check sys

let test_clean_of_remote_dirty () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 22;
  S.clean sys ~core:1 a;
  S.fence sys ~core:1;
  Alcotest.(check int) "persisted via probe" 22 (S.persisted_word sys a);
  (* The clean downgraded core 0 to Branch; its next read still hits. *)
  let t0 = S.clock sys ~core:0 in
  Alcotest.(check int) "core0 keeps a copy" 22 (S.load sys ~core:0 a);
  Alcotest.(check bool) "hit" true (S.clock sys ~core:0 - t0 < 10);
  Structural.check sys

let test_fence_orders_writebacks () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 31;
  let t0 = S.clock sys ~core:0 in
  S.flush sys ~core:0 a;
  let commit_cost = S.clock sys ~core:0 - t0 in
  Alcotest.(check bool) "flush commits asynchronously" true (commit_cost < 20);
  S.fence sys ~core:0;
  Alcotest.(check bool) "fence pays the writeback" true (S.clock sys ~core:0 - t0 > 50)

let test_crash_semantics () =
  let sys = make () in
  let a = line sys and b = line sys in
  S.store sys ~core:0 a 1;
  S.clean sys ~core:0 a;
  S.fence sys ~core:0;
  S.store sys ~core:0 b 2 (* never written back *);
  S.crash sys;
  Alcotest.(check int) "cleaned survives" 1 (S.persisted_word sys a);
  Alcotest.(check int) "volatile lost" 0 (S.persisted_word sys b);
  (* After the crash the caches are empty; loads refetch from DRAM. *)
  Alcotest.(check int) "reload persisted" 1 (S.load sys ~core:0 a);
  Alcotest.(check int) "reload lost" 0 (S.load sys ~core:0 b)

let test_eviction_writeback () =
  (* Tiny hierarchy: storing more lines than L1+L2 capacity forces dirty
     evictions all the way to DRAM without any CBO.X. *)
  let sys = make ~tiny:true () in
  let n = 512 in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (n * 64) in
  for i = 0 to n - 1 do
    S.store sys ~core:0 (base + (i * 64)) (i + 1)
  done;
  Structural.check sys;
  for i = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "line %d value" i) (i + 1)
      (S.load sys ~core:0 (base + (i * 64)))
  done;
  Structural.check sys;
  Alcotest.(check bool) "dirty lines reached DRAM" true (Skipit_mem.Dram.writes (S.dram sys) > 0)

let test_stats_report () =
  let sys = make () in
  let a = line sys in
  S.store sys ~core:0 a 1;
  S.flush sys ~core:0 a;
  S.fence sys ~core:0;
  let report = S.stats_report sys in
  let get k = Option.value ~default:0 (List.assoc_opt k report) in
  Alcotest.(check int) "one store miss" 1 (get "l1.0.store_misses");
  Alcotest.(check int) "one root release" 1 (get "l2.root_releases");
  Alcotest.(check bool) "a DRAM write happened" true (get "l2.dram_writebacks" >= 1)

(* Random cross-core workload against a flat reference memory.  The
   reference is updated at the same op granularity the scheduler uses, so
   values must agree exactly; invariants are checked throughout. *)
let random_ops ~tiny ~skip_it ~ops ~seed () =
  let sys = make ~cores:2 ~skip_it ~tiny () in
  let rng = Rng.create ~seed in
  let lines = Array.init 24 (fun _ -> line sys) in
  let reference = Hashtbl.create 64 in
  let ref_get a = Option.value ~default:0 (Hashtbl.find_opt reference a) in
  for _ = 1 to ops do
    let core = Rng.int rng 2 in
    let a = lines.(Rng.int rng (Array.length lines)) + (8 * Rng.int rng 8) in
    match Rng.int rng 6 with
    | 0 | 1 ->
      let got = S.load sys ~core a in
      Alcotest.(check int) (Printf.sprintf "load %#x" a) (ref_get a) got
    | 2 | 3 ->
      let v = Rng.int rng 1000 in
      S.store sys ~core a v;
      Hashtbl.replace reference a v
    | 4 -> S.clean sys ~core a
    | _ -> S.flush sys ~core a
  done;
  S.fence sys ~core:0;
  S.fence sys ~core:1;
  Structural.check sys;
  (* Architectural values must match the reference everywhere. *)
  Hashtbl.iter
    (fun a v -> Alcotest.(check int) (Printf.sprintf "final %#x" a) v (S.peek_word sys a))
    reference

let test_random_small () = random_ops ~tiny:false ~skip_it:false ~ops:800 ~seed:1 ()
let test_random_tiny () = random_ops ~tiny:true ~skip_it:false ~ops:800 ~seed:2 ()
let test_random_skipit () = random_ops ~tiny:true ~skip_it:true ~ops:800 ~seed:3 ()

let prop_random_workloads =
  QCheck.Test.make ~name:"random workloads preserve values+invariants" ~count:12
    QCheck.(pair small_int bool)
  @@ fun (seed, skip_it) ->
  random_ops ~tiny:true ~skip_it ~ops:300 ~seed ();
  true

(* [copy_into] with every optional component present: an L3, random L1
   replacement (its generator is state too), a shared bus and two cores.
   The target first runs a different workload; after the copy it
   marshals like its source, and the two run one continuation to the
   same counters and the same image again. *)
let every_component =
  {
    (Skipit_cache.Params.with_l3 (C.tiny ~cores:2 ())) with
    Skipit_cache.Params.l1_replacement = `Random;
    topology = `Shared_bus;
  }

let work sys ~seed n =
  let rng = Rng.create ~seed in
  for _ = 1 to n do
    let core = Rng.int rng 2 and addr = 0x1_0000 + (8 * Rng.int rng 512) in
    match Rng.int rng 4 with
    | 0 -> S.store sys ~core addr (1 + Rng.int rng 1000)
    | 1 -> ignore (S.load sys ~core addr)
    | 2 -> S.clean sys ~core addr
    | _ -> S.flush sys ~core addr
  done

let test_copy_into_every_component () =
  let src = S.create every_component and dst = S.create every_component in
  work src ~seed:1 400;
  work dst ~seed:2 300;
  S.copy_into ~src ~dst;
  let image sys = Marshal.to_string sys [ Marshal.Closures ] in
  Alcotest.(check bool) "the copy marshals like its source" true (image src = image dst);
  work src ~seed:3 200;
  work dst ~seed:3 200;
  Alcotest.(check (list (pair string int))) "one continuation, same counters"
    (S.stats_report src) (S.stats_report dst);
  Alcotest.(check bool) "and the same image" true (image src = image dst)

(* The crash campaign copies a run into its twin at every boundary, and
   the twin has run on from the previous copy: once the twin holds
   storage for every line the run does, a copy is blits alone. *)
let test_warm_copy_into_allocates_nothing () =
  let src = S.create every_component and dst = S.create every_component in
  work src ~seed:1 400;
  S.copy_into ~src ~dst;
  work src ~seed:3 200;
  work dst ~seed:3 200;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    S.copy_into ~src ~dst
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "0 minor words across 10 warm copies (saw %.0f)" words)
    true (words = 0.)

let tests =
  ( "system",
    [
      Alcotest.test_case "store/load roundtrip" `Quick test_store_load_roundtrip;
      Alcotest.test_case "warm copy_into allocates nothing" `Quick
        test_warm_copy_into_allocates_nothing;
      Alcotest.test_case "cross-core coherence" `Quick test_cross_core_coherence;
      Alcotest.test_case "cas" `Quick test_cas;
      Alcotest.test_case "flush persists+invalidates" `Quick test_flush_persists_and_invalidates;
      Alcotest.test_case "clean persists, keeps line" `Quick test_clean_persists_keeps_line;
      Alcotest.test_case "cross-core flush (§5.5)" `Quick test_cross_core_writeback;
      Alcotest.test_case "clean of remote dirty line" `Quick test_clean_of_remote_dirty;
      Alcotest.test_case "fence orders writebacks" `Quick test_fence_orders_writebacks;
      Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
      Alcotest.test_case "eviction writeback" `Quick test_eviction_writeback;
      Alcotest.test_case "stats report" `Quick test_stats_report;
      Alcotest.test_case "random ops (boom)" `Quick test_random_small;
      Alcotest.test_case "random ops (tiny)" `Quick test_random_tiny;
      Alcotest.test_case "random ops (skip-it)" `Quick test_random_skipit;
      QCheck_alcotest.to_alcotest prop_random_workloads;
      Alcotest.test_case "copy_into every component" `Quick test_copy_into_every_component;
    ] )
