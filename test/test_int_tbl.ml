module Int_tbl = Skipit_sim.Int_tbl

let test_empty () =
  let t = Int_tbl.create () in
  Alcotest.(check int) "length" 0 (Int_tbl.length t);
  Alcotest.(check bool) "mem" false (Int_tbl.mem t 0);
  Alcotest.(check int) "find_default" (-7) (Int_tbl.find_default t 42 ~default:(-7))

let test_replace_overwrites () =
  let t = Int_tbl.create () in
  Int_tbl.replace t 5 10;
  Int_tbl.replace t 5 20;
  Alcotest.(check int) "length counts keys, not writes" 1 (Int_tbl.length t);
  Alcotest.(check int) "latest value wins" 20 (Int_tbl.find_default t 5 ~default:0)

let test_growth_preserves_bindings () =
  (* Start tiny so insertion forces several rehashes. *)
  let t = Int_tbl.create ~size_hint:1 () in
  for k = 0 to 999 do
    Int_tbl.replace t (k * 64) (k * 3)
  done;
  Alcotest.(check int) "length" 1000 (Int_tbl.length t);
  for k = 0 to 999 do
    if Int_tbl.find_default t (k * 64) ~default:(-1) <> k * 3 then
      Alcotest.failf "binding %d lost across growth" k
  done

let test_clear () =
  let t = Int_tbl.create () in
  Int_tbl.replace t 1 1;
  Int_tbl.replace t 2 2;
  Int_tbl.clear t;
  Alcotest.(check int) "length" 0 (Int_tbl.length t);
  Alcotest.(check bool) "mem" false (Int_tbl.mem t 1);
  Int_tbl.replace t 1 9;
  Alcotest.(check int) "usable after clear" 9 (Int_tbl.find_default t 1 ~default:0)

let test_negative_key_rejected () =
  let t = Int_tbl.create () in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Int_tbl.replace: negative key") (fun () ->
      Int_tbl.replace t (-1) 0)

let test_iter () =
  let t = Int_tbl.create () in
  List.iter (fun (k, v) -> Int_tbl.replace t k v) [ 1, 10; 2, 20; 3, 30 ];
  let sum_k = ref 0 and sum_v = ref 0 in
  Int_tbl.iter t (fun k v ->
    sum_k := !sum_k + k;
    sum_v := !sum_v + v);
  Alcotest.(check (pair int int)) "iter visits every binding" (6, 60) (!sum_k, !sum_v)

(* The hash spreads the keys the simulator uses: 4k consecutive line
   bases, and 4k consecutive word addresses, each average at most two
   probed slots per lookup.  A hash keeping the low bits of the product
   sends multiples of 64 to 1/64 of the home slots. *)
let test_probe_length () =
  List.iter
    (fun (what, stride) ->
      let t = Int_tbl.create () in
      let n = 4096 in
      for i = 0 to n - 1 do
        Int_tbl.replace t (i * stride) i
      done;
      let total = ref 0 in
      for i = 0 to n - 1 do
        total := !total + Int_tbl.probe_length t (i * stride)
      done;
      let mean = float_of_int !total /. float_of_int n in
      if mean > 2. then Alcotest.failf "%s: mean probe length %.2f > 2" what mean)
    [ "line bases", 64; "word addresses", 8 ]

(* Model-based property: after any sequence of replaces, every lookup agrees
   with a reference Hashtbl.  Keys cluster mod 257 to force probe chains. *)
let prop_matches_hashtbl =
  QCheck.Test.make ~name:"Int_tbl agrees with Hashtbl reference" ~count:200
    QCheck.(
      list_of_size (QCheck.Gen.int_range 0 400)
        (pair (int_range 0 100_000) (int_range (-1000) 1000)))
  @@ fun ops ->
  let t = Int_tbl.create ~size_hint:2 () in
  let ref_tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      let k = (k mod 257) * 64 in
      Int_tbl.replace t k v;
      Hashtbl.replace ref_tbl k v)
    ops;
  Int_tbl.length t = Hashtbl.length ref_tbl
  && Hashtbl.fold
       (fun k v acc ->
         acc && Int_tbl.mem t k && Int_tbl.find_default t k ~default:(v - 1) = v)
       ref_tbl true
  && List.for_all
       (fun (k, _) ->
         let k = ((k + 13) mod 521) * 64 in
         Hashtbl.mem ref_tbl k = Int_tbl.mem t k)
       ops

let tests =
  ( "int_tbl",
    [
      Alcotest.test_case "empty table" `Quick test_empty;
      Alcotest.test_case "replace overwrites" `Quick test_replace_overwrites;
      Alcotest.test_case "growth preserves bindings" `Quick test_growth_preserves_bindings;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "negative key rejected" `Quick test_negative_key_rejected;
      Alcotest.test_case "iter" `Quick test_iter;
      Alcotest.test_case "mean probe length of address keys" `Quick test_probe_length;
      QCheck_alcotest.to_alcotest prop_matches_hashtbl;
    ] )
