module Geometry = Skipit_cache.Geometry
module Store = Skipit_cache.Store

let tiny = Geometry.v ~size_bytes:(4 * 2 * 64) ~ways:2 ~line_bytes:64
(* 4 sets, 2 ways. *)

let addr_for ~set ~tag = Geometry.addr_of tiny ~tag ~index:set

let test_miss_then_hit () =
  let s = Store.create tiny in
  let a = addr_for ~set:1 ~tag:5 in
  Alcotest.(check bool) "initially miss" true (Store.find s a = Store.miss);
  let id = Store.victim s a in
  Store.fill s id ~addr:a ~now:0;
  let found = Store.find s a in
  Alcotest.(check int) "hit in the filled slot" id found;
  Alcotest.(check int) "slot addr" a (Store.slot_addr s id)

let test_lru_victim () =
  let s = Store.create tiny in
  let a = addr_for ~set:0 ~tag:1 and b = addr_for ~set:0 ~tag:2 in
  Store.fill s (Store.victim s a) ~addr:a ~now:0;
  Store.fill s (Store.victim s b) ~addr:b ~now:1;
  (* Touch [a] so [b] becomes LRU. *)
  Store.touch s (Store.find s a) ~now:5;
  let c = addr_for ~set:0 ~tag:3 in
  let victim = Store.victim s c in
  Alcotest.(check int) "victim is LRU (b)" b (Store.slot_addr s victim)

let test_invalid_way_preferred () =
  let s = Store.create tiny in
  let a = addr_for ~set:2 ~tag:1 in
  Store.fill s (Store.victim s a) ~addr:a ~now:0;
  let b = addr_for ~set:2 ~tag:2 in
  let v = Store.victim s b in
  Alcotest.(check bool) "free way chosen before eviction" false (Store.is_valid s v)

let test_invalidate () =
  let s = Store.create tiny in
  let a = addr_for ~set:3 ~tag:7 in
  Store.fill s (Store.victim s a) ~addr:a ~now:0;
  Store.invalidate s (Store.find s a);
  Alcotest.(check bool) "gone" true (Store.find s a = Store.miss);
  Alcotest.(check int) "count" 0 (Store.count_valid s)

let test_iter_and_invalidate_all () =
  let s = Store.create tiny in
  let addrs = List.init 6 (fun i -> addr_for ~set:(i mod 4) ~tag:(10 + i)) in
  List.iter (fun a -> Store.fill s (Store.victim s a) ~addr:a ~now:0) addrs;
  Alcotest.(check int) "count" 6 (Store.count_valid s);
  let seen = ref [] in
  Store.iter_valid s (fun addr _ -> seen := addr :: !seen);
  Alcotest.(check (list int)) "iter covers all"
    (List.sort compare addrs) (List.sort compare !seen);
  Store.invalidate_all s;
  Alcotest.(check int) "crash clears" 0 (Store.count_valid s)

let test_tag_aliasing () =
  (* Same index, different tags must not alias. *)
  let s = Store.create tiny in
  let a = addr_for ~set:1 ~tag:1 and b = addr_for ~set:1 ~tag:2 in
  Store.fill s (Store.victim s a) ~addr:a ~now:0;
  Alcotest.(check bool) "b still misses" true (Store.find s b = Store.miss)

let test_random_replacement () =
  let rng = Skipit_sim.Rng.create ~seed:9 in
  let s = Store.create ~policy:(Store.Random rng) tiny in
  let a = addr_for ~set:0 ~tag:1 and b = addr_for ~set:0 ~tag:2 in
  Store.fill s (Store.victim s a) ~addr:a ~now:0;
  Store.fill s (Store.victim s b) ~addr:b ~now:1;
  (* The victim is one of the two valid ways, regardless of recency. *)
  let c = addr_for ~set:0 ~tag:3 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 32 do
    Hashtbl.replace seen (Store.slot_addr s (Store.victim s c)) ()
  done;
  Alcotest.(check bool) "both ways eventually chosen" true (Hashtbl.length seen = 2)

let test_slot_addr_of_invalid_raises () =
  let s = Store.create tiny in
  let a = addr_for ~set:0 ~tag:1 in
  let id = Store.victim s a in
  Alcotest.check_raises "slot_addr of invalid slot" (Invalid_argument "Store.slot_addr: invalid slot")
    (fun () -> ignore (Store.slot_addr s id));
  Store.fill s id ~addr:a ~now:0;
  Store.invalidate s id;
  Alcotest.check_raises "and of an invalidated one" (Invalid_argument "Store.slot_addr: invalid slot")
    (fun () -> ignore (Store.slot_addr s id))

let prop_fill_find =
  QCheck.Test.make ~name:"fill then find returns the slot" ~count:300
    QCheck.(int_range 0 0xFFFF)
  @@ fun line_no ->
  let s = Store.create tiny in
  let addr = line_no * 64 in
  let id = Store.victim s addr in
  Store.fill s id ~addr ~now:0;
  let found = Store.find s addr in
  found = id && Store.slot_addr s found = addr

(* [iter_valid] skips eight invalid slots at a time: on any geometry,
   slot counts that are not a multiple of eight included, it visits
   exactly the valid slots, in ascending id order, with their
   addresses. *)
let prop_iter_valid_visits_valid_slots =
  let gen =
    QCheck.Gen.(
      let* ways = int_range 1 5 and* sets = oneofl [ 1; 2; 4; 8; 32 ] in
      let* ops = list_size (int_bound 120) (pair bool (int_bound 4095)) in
      return (ways, sets, ops))
  in
  QCheck.Test.make ~name:"iter_valid visits the valid slots in order" ~count:300
    (QCheck.make gen ~print:(fun (ways, sets, ops) ->
       Printf.sprintf "ways=%d sets=%d ops=%d" ways sets (List.length ops)))
  @@ fun (ways, sets, ops) ->
  let s = Store.create (Geometry.v ~size_bytes:(ways * sets * 64) ~ways ~line_bytes:64) in
  List.iter
    (fun (fill, line) ->
      let addr = line * 64 in
      if fill then begin
        if Store.find s addr = Store.miss then Store.fill s (Store.victim s addr) ~addr ~now:line
      end
      else match Store.find s addr with id when id <> Store.miss -> Store.invalidate s id | _ -> ())
    ops;
  let want = ref [] in
  for id = Store.slots s - 1 downto 0 do
    if Store.is_valid s id then want := (Store.slot_addr s id, id) :: !want
  done;
  let got = ref [] in
  Store.iter_valid s (fun addr id -> got := (addr, id) :: !got);
  List.rev !got = !want

let tests =
  ( "store",
    [
      Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
      Alcotest.test_case "LRU victim" `Quick test_lru_victim;
      Alcotest.test_case "invalid way preferred" `Quick test_invalid_way_preferred;
      Alcotest.test_case "invalidate" `Quick test_invalidate;
      Alcotest.test_case "iter + invalidate_all" `Quick test_iter_and_invalidate_all;
      Alcotest.test_case "tag aliasing" `Quick test_tag_aliasing;
      Alcotest.test_case "random replacement" `Quick test_random_replacement;
      Alcotest.test_case "slot_addr of invalid raises" `Quick test_slot_addr_of_invalid_raises;
      QCheck_alcotest.to_alcotest prop_fill_find;
      QCheck_alcotest.to_alcotest prop_iter_valid_visits_valid_slots;
    ] )
