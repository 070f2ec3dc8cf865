(* The persistent lock-free data structures: sequential oracle testing,
   concurrent runs with invariants, and crash durability. *)

module S = Skipit_core.System
module T = Skipit_core.Thread
module C = Skipit_core.Config
module Strategy = Skipit_persist.Strategy
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module Ds_bench = Skipit_workload.Ds_bench
module Rng = Skipit_sim.Rng

let run_task sys body = ignore (T.run sys [ { T.core = 0; body } ])

(* Sequential oracle: random ops mirrored into a Hashtbl must agree on every
   return value and on the final snapshot. *)
let oracle ~kind ~strategy ~mode ~ops ~seed () =
  let sys = S.create (C.platform ~cores:2 ~skip_it:true ()) in
  let pctx = Pctx.make strategy mode in
  let handle = ref None in
  run_task sys (fun () ->
    handle := Some (Ops.create_sized kind ~buckets:16 pctx (S.allocator sys)));
  let h = Option.get !handle in
  let model = Hashtbl.create 64 in
  let rng = Rng.create ~seed in
  run_task sys (fun () ->
    for _ = 1 to ops do
      let key = 1 + Rng.int rng 60 in
      match Rng.int rng 3 with
      | 0 ->
        let expected = not (Hashtbl.mem model key) in
        let got = h.Ops.insert pctx key in
        if got <> expected then
          Alcotest.failf "insert %d: got %b want %b" key got expected;
        if got then Hashtbl.replace model key ()
      | 1 ->
        let expected = Hashtbl.mem model key in
        let got = h.Ops.delete pctx key in
        if got <> expected then
          Alcotest.failf "delete %d: got %b want %b" key got expected;
        if got then Hashtbl.remove model key
      | _ ->
        let expected = Hashtbl.mem model key in
        let got = h.Ops.contains pctx key in
        if got <> expected then
          Alcotest.failf "contains %d: got %b want %b" key got expected
    done);
  let want = Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare in
  Alcotest.(check (list int)) "snapshot = model" want (h.Ops.snapshot sys);
  Structural.check sys

let oracle_case kind (sname, strategy) mode =
  let name =
    Printf.sprintf "%s / %s / %s" (Ops.kind_name kind) sname (Pctx.mode_name mode)
  in
  Alcotest.test_case name `Quick (fun () ->
    oracle ~kind ~strategy:(strategy ()) ~mode ~ops:250 ~seed:11 ())

(* Concurrent run: two threads own disjoint key ranges, so a per-range
   oracle applies even under interleaving. *)
let concurrent ~kind ~strategy () =
  let sys = S.create (C.platform ~cores:2 ~skip_it:true ()) in
  let pctx = Pctx.make strategy Pctx.Nvtraverse in
  let handle = ref None in
  run_task sys (fun () ->
    handle := Some (Ops.create_sized kind ~buckets:16 pctx (S.allocator sys)));
  let h = Option.get !handle in
  let models = Array.init 2 (fun _ -> Hashtbl.create 32) in
  let worker core =
    {
      T.core;
      body =
        (fun () ->
          let rng = Rng.create ~seed:(100 + core) in
          let model = models.(core) in
          for _ = 1 to 150 do
            (* Odd keys to thread 0, even keys to thread 1. *)
            let key = 1 + (2 * Rng.int rng 40) + core in
            if Rng.bool rng then begin
              if h.Ops.insert pctx key then Hashtbl.replace model key ()
            end
            else if h.Ops.delete pctx key then Hashtbl.remove model key
          done);
    }
  in
  ignore (T.run sys [ worker 0; worker 1 ]);
  let want =
    List.sort compare
      (Hashtbl.fold (fun k () acc -> k :: acc) models.(0) []
      @ Hashtbl.fold (fun k () acc -> k :: acc) models.(1) [])
  in
  Alcotest.(check (list int)) "disjoint-range oracle" want (h.Ops.snapshot sys);
  Structural.check sys

(* Crash durability: with every update fenced (any persistent strategy +
   nvtraverse), completed updates must survive a crash. *)
let durability ~kind () =
  let sys = S.create (C.platform ~cores:1 ~skip_it:true ()) in
  let pctx = Pctx.make (Strategy.plain ()) Pctx.Nvtraverse in
  let handle = ref None in
  run_task sys (fun () ->
    let h = Ops.create_sized kind ~buckets:16 pctx (S.allocator sys) in
    for k = 1 to 30 do
      ignore (h.Ops.insert pctx k)
    done;
    for k = 1 to 10 do
      ignore (h.Ops.delete pctx (k * 3))
    done;
    handle := Some h);
  let h = Option.get !handle in
  let before = h.Ops.snapshot sys in
  S.crash sys;
  let after = h.Ops.snapshot sys in
  Alcotest.(check (list int)) "fenced updates survive the crash" before after

let test_bst_rejects_lap () =
  Alcotest.(check bool) "BST x LaP incompatible" false
    (Ds_bench.compatible Ops.Bst_set Ds_bench.Link_and_persist);
  Alcotest.(check bool) "list x LaP fine" true
    (Ds_bench.compatible Ops.List_set Ds_bench.Link_and_persist)

let test_skiplist_height_bounded () =
  Alcotest.(check bool) "max level sane" true
    (Skipit_pds.Skiplist.max_level >= 4 && Skipit_pds.Skiplist.max_level <= 32)

let test_key_range_guard () =
  let sys = S.create (C.platform ~cores:1 ()) in
  let pctx = Pctx.make (Strategy.plain ()) Pctx.Manual in
  run_task sys (fun () ->
    let h = Ops.create Ops.List_set pctx (S.allocator sys) in
    (try
       ignore (h.Ops.insert pctx 0);
       Alcotest.fail "key 0 must be rejected"
     with Invalid_argument _ -> ()))

let strategies_for kind =
  List.filter_map
    (fun (name, spec, mk) -> if Ds_bench.compatible kind spec then Some (name, mk) else None)
    [
      "plain", Ds_bench.Plain, (fun () -> Strategy.plain ());
      "flit-adjacent", Ds_bench.Flit_adjacent, (fun () -> Strategy.flit_adjacent ());
      "link-and-persist", Ds_bench.Link_and_persist, (fun () -> Strategy.link_and_persist ());
      "skipit", Ds_bench.Skipit, (fun () -> Strategy.skipit_hw ());
    ]

(* A set whose links loop: after a crash, the node holding [key] gets a
   pointer field aimed at itself (the next field of a list or bottom-level skiplist node,
   a leaf's left edge in the BST).  The snapshot walk stops at the
   allocator's footprint with [Node.Cycle] instead of running forever. *)
let snapshot_cycle kind () =
  let sys = S.create (C.platform ~cores:1 ()) in
  let pctx = Pctx.make (Strategy.plain ()) Pctx.Manual in
  let alloc = S.allocator sys in
  let key = 4242 in
  let handle = ref None in
  run_task sys (fun () ->
    let h = Ops.create_sized kind ~buckets:4 pctx alloc in
    List.iter (fun k -> ignore (h.Ops.insert pctx k)) [ 7; key; 9000 ];
    handle := Some h);
  let h = Option.get !handle in
  (* Every operation persisted its writes; with the caches dropped, what
     the walk reads is NVMM, where the poke lands. *)
  S.crash sys;
  let base = 0x1_0000 in
  let rec find a =
    if a >= base + Skipit_mem.Allocator.used alloc then Alcotest.fail "key not found"
    else if S.peek_word sys a = key then a
    else find (a + 8)
  in
  let node = find base in
  let field = match kind with Ops.Skiplist_set -> 2 | _ -> 1 in
  S.poke_word sys (node + (8 * field)) node;
  match h.Ops.snapshot sys with
  | keys ->
    Alcotest.failf "snapshot returned %d keys" (List.length keys)
  | exception Skipit_pds.Node.Cycle at ->
    Alcotest.(check int) "stopped on the looping node" node at

let tests =
  let oracle_cases =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun strat -> List.map (oracle_case kind strat) Pctx.all_modes)
          (strategies_for kind))
      Ops.all_kinds
  in
  let concurrent_cases =
    List.map
      (fun kind ->
        Alcotest.test_case
          (Printf.sprintf "concurrent %s" (Ops.kind_name kind))
          `Quick
          (fun () -> concurrent ~kind ~strategy:(Strategy.plain ()) ()))
      Ops.all_kinds
  in
  let durability_cases =
    List.map
      (fun kind ->
        Alcotest.test_case
          (Printf.sprintf "durability %s" (Ops.kind_name kind))
          `Quick (durability ~kind))
      Ops.all_kinds
  in
  let cycle_cases =
    List.map
      (fun kind ->
        Alcotest.test_case
          (Printf.sprintf "looping %s snapshot raises Cycle" (Ops.kind_name kind))
          `Quick (snapshot_cycle kind))
      Ops.all_kinds
  in
  ( "pds",
    oracle_cases @ concurrent_cases @ durability_cases @ cycle_cases
    @ [
        Alcotest.test_case "BST rejects LaP" `Quick test_bst_rejects_lap;
        Alcotest.test_case "skiplist height bounded" `Quick test_skiplist_height_bounded;
        Alcotest.test_case "key range guard" `Quick test_key_range_guard;
      ] )
