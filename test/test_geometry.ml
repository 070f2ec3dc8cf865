module Geometry = Skipit_cache.Geometry

let test_boom_presets () =
  let l1 = Geometry.boom_l1 in
  Alcotest.(check int) "L1 sets" 64 l1.Geometry.sets;
  Alcotest.(check int) "L1 ways" 8 l1.Geometry.ways;
  Alcotest.(check int) "L1 lines" 512 (Geometry.lines l1);
  let l2 = Geometry.boom_l2 in
  Alcotest.(check int) "L2 sets" 1024 l2.Geometry.sets;
  Alcotest.(check int) "L2 lines" 8192 (Geometry.lines l2)

let test_slicing () =
  let g = Geometry.v ~size_bytes:4096 ~ways:2 ~line_bytes:64 in
  Alcotest.(check int) "sets" 32 g.Geometry.sets;
  Alcotest.(check int) "line base" 0x1000 (Geometry.line_base g 0x103f);
  Alcotest.(check int) "offset word" 7 (Geometry.offset_word g 0x1038);
  Alcotest.(check int) "words per line" 8 (Geometry.words_per_line g)

let test_invalid () =
  Alcotest.check_raises "non-power-of-two line"
    (Invalid_argument "Geometry: line_bytes not a power of two") (fun () ->
      ignore (Geometry.v ~size_bytes:4096 ~ways:2 ~line_bytes:48));
  Alcotest.check_raises "indivisible size"
    (Invalid_argument "Geometry: size not divisible by ways*line") (fun () ->
      ignore (Geometry.v ~size_bytes:4000 ~ways:2 ~line_bytes:64))

let prop_roundtrip =
  QCheck.Test.make ~name:"tag/index/addr_of roundtrip" ~count:500
    QCheck.(int_range 0 0xFF_FFFF)
  @@ fun addr ->
  let g = Skipit_cache.Geometry.boom_l1 in
  let tag = Geometry.tag_of g addr in
  let index = Geometry.index_of g addr in
  Geometry.addr_of g ~tag ~index = Geometry.line_base g addr

let prop_same_line_same_slice =
  QCheck.Test.make ~name:"addresses in one line share tag+index" ~count:500
    QCheck.(pair (int_range 0 0xFF_FFFF) (int_range 0 63))
  @@ fun (addr, off) ->
  let g = Skipit_cache.Geometry.boom_l1 in
  let base = Geometry.line_base g addr in
  Geometry.tag_of g base = Geometry.tag_of g (base + off)
  && Geometry.index_of g base = Geometry.index_of g (base + off)

(* The slicing functions shift by precomputed amounts; over random valid
   geometries and non-negative addresses they must equal the division
   formulas they replace. *)
let prop_shifts_match_division =
  QCheck.Test.make ~name:"shifts equal the division formulas" ~count:1000
    QCheck.(
      quad (int_range 3 12) (int_range 1 16) (int_range 0 14)
        (oneof [ int_range 0 0xFFFF_FFFF; int_range 0 max_int ]))
  @@ fun (line_log, ways, sets_log, addr) ->
  let line_bytes = 1 lsl line_log and sets = 1 lsl sets_log in
  let g = Geometry.v ~size_bytes:(sets * ways * line_bytes) ~ways ~line_bytes in
  let tag = addr / line_bytes / sets and index = addr / line_bytes land (sets - 1) in
  Geometry.tag_of g addr = tag
  && Geometry.index_of g addr = index
  && Geometry.offset_word g addr = addr land (line_bytes - 1) / 8
  && Geometry.addr_of g ~tag ~index = ((tag * sets) + index) * line_bytes

let tests =
  ( "geometry",
    [
      Alcotest.test_case "boom presets" `Quick test_boom_presets;
      Alcotest.test_case "address slicing" `Quick test_slicing;
      Alcotest.test_case "invalid params rejected" `Quick test_invalid;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_same_line_same_slice;
      QCheck_alcotest.to_alcotest prop_shifts_match_division;
    ] )
