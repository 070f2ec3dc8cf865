module Sample = Skipit_sim.Stats.Sample
module Registry = Skipit_sim.Stats.Registry

let of_list xs =
  let s = Sample.create () in
  List.iter (Sample.add s) xs;
  s

let test_median_odd () =
  Alcotest.(check (float 1e-9)) "median of odd count" 3. (Sample.median (of_list [ 5.; 1.; 3. ]))

let test_median_even () =
  Alcotest.(check (float 1e-9)) "median of even count" 2.5
    (Sample.median (of_list [ 1.; 2.; 3.; 4. ]))

let test_percentiles () =
  let s = of_list (List.init 101 float_of_int) in
  Alcotest.(check (float 1e-9)) "p0" 0. (Sample.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Sample.percentile s 100.);
  Alcotest.(check (float 1e-9)) "p90" 90. (Sample.percentile s 90.)

let test_mean_stddev () =
  let s = of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check (float 1e-9)) "mean" 5. (Sample.mean s);
  Alcotest.(check (float 1e-9)) "population stddev" 2. (Sample.stddev s)

let test_empty_raises () =
  Alcotest.check_raises "median of empty" (Invalid_argument "Sample.percentile: empty")
    (fun () -> ignore (Sample.median (Sample.create ())));
  ignore (Alcotest.(check bool) "empty" true (Sample.is_empty (Sample.create ())))

let test_sorted_cache_invalidated () =
  (* percentile/median share a lazily built sorted view; an add must
     invalidate it or later queries see stale order statistics. *)
  let s = of_list [ 10.; 20.; 30. ] in
  Alcotest.(check (float 1e-9)) "median before add" 20. (Sample.median s);
  Sample.add s 1.;
  Sample.add s 2.;
  Alcotest.(check (float 1e-9)) "median sees new elements" 10. (Sample.median s);
  Alcotest.(check (float 1e-9)) "p0 sees new minimum" 1. (Sample.percentile s 0.);
  (* Repeated queries without adds stay consistent (served from the cache). *)
  Alcotest.(check (float 1e-9)) "repeat query stable" 10. (Sample.median s)

let test_growth () =
  let s = Sample.create () in
  for i = 1 to 1000 do
    Sample.add_int s i
  done;
  Alcotest.(check int) "count" 1000 (Sample.count s);
  Alcotest.(check (float 1e-9)) "min" 1. (Sample.min s);
  Alcotest.(check (float 1e-9)) "max" 1000. (Sample.max s);
  Alcotest.(check (float 1e-9)) "total" 500500. (Sample.total s)

let test_percentile_edges () =
  (* Documented boundary behaviour: a single element answers every p; p=0 and
     p=100 are the exact min/max (no interpolation rounding); out-of-range or
     NaN p raises. *)
  let one = of_list [ 42. ] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "singleton p%g" p)
        42. (Sample.percentile one p))
    [ 0.; 37.2; 50.; 99.; 100. ];
  let s = of_list [ 3.; 1.; 2.; 2.; 5. ] in
  Alcotest.(check (float 1e-9)) "p0 is min" 1. (Sample.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100 is max" 5. (Sample.percentile s 100.);
  Alcotest.check_raises "p < 0" (Invalid_argument "Sample.percentile: p out of range")
    (fun () -> ignore (Sample.percentile s (-1.)));
  Alcotest.check_raises "p > 100" (Invalid_argument "Sample.percentile: p out of range")
    (fun () -> ignore (Sample.percentile s 100.5));
  Alcotest.check_raises "p nan" (Invalid_argument "Sample.percentile: p out of range")
    (fun () -> ignore (Sample.percentile s Float.nan));
  Alcotest.check_raises "empty" (Invalid_argument "Sample.percentile: empty")
    (fun () -> ignore (Sample.percentile (Sample.create ()) 50.))

(* Independent reference: sort a copy and linearly interpolate at rank
   p/100 * (n-1).  The production implementation must agree on every input. *)
let naive_percentile xs p =
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if p <= 0. then arr.(0)
  else if p >= 100. then arr.(n - 1)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  end

let prop_percentile_matches_reference =
  QCheck.Test.make ~name:"percentile agrees with naive sorted-array reference"
    ~count:500
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 80) (float_range (-1e6) 1e6))
        (float_range 0. 100.))
  @@ fun (xs, p) ->
  let got = Sample.percentile (of_list xs) p in
  let want = naive_percentile xs p in
  Float.abs (got -. want) <= 1e-6 *. Float.max 1. (Float.abs want)

let prop_median_bounded =
  QCheck.Test.make ~name:"median within [min,max]" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (float_range (-1e6) 1e6))
  @@ fun xs ->
  let s = of_list xs in
  let m = Sample.median s in
  m >= Sample.min s && m <= Sample.max s

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:300
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 60) (float_range (-1e6) 1e6))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
  @@ fun (xs, (p1, p2)) ->
  let s = of_list xs in
  let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
  Sample.percentile s lo <= Sample.percentile s hi +. 1e-9

(* A handle counts bumps of 1 and of k; a [bump_by h 0] reports the key
   at 0, which is how a component makes a key print before its first
   event. *)
let test_counter () =
  let r = Registry.create () in
  let c = Registry.handle r "beats" in
  Registry.bump c;
  Registry.bump_by c 5;
  Alcotest.(check int) "count" 6 (Registry.get r "beats");
  let z = Registry.handle r "zero" in
  Registry.bump_by z 0;
  Alcotest.(check (list (pair string int))) "bump_by 0 reports the key"
    [ "beats", 6; "zero", 0 ] (Registry.to_list r)

let test_registry () =
  let r = Registry.create () in
  let hits = Registry.handle r "hits" and misses = Registry.handle r "misses" in
  Registry.bump hits;
  Registry.bump_by hits 2;
  Registry.bump misses;
  Alcotest.(check int) "hits" 3 (Registry.get r "hits");
  Alcotest.(check int) "untouched" 0 (Registry.get r "nacks");
  Alcotest.(check (list (pair string int))) "to_list sorted"
    [ "hits", 3; "misses", 1 ]
    (Registry.to_list r)

let test_handle_binds_on_first_bump () =
  let r = Registry.create () in
  let hits = Registry.handle r "hits" and nacks = Registry.handle r "nacks" in
  Alcotest.(check (list (pair string int))) "unbumped handles stay out" [] (Registry.to_list r);
  let again = Registry.handle r "hits" in
  Registry.bump again;
  Registry.bump hits;
  Registry.bump_by hits 3;
  Alcotest.(check (list (pair string int))) "handles of one name share its counter"
    [ "hits", 5 ] (Registry.to_list r);
  ignore nacks

(* [copy_into] makes the target report what the source reports, keeps the
   target's handles live, and rebuilds a target whose keys differ so that
   it marshals like the source (same keys, same table layout). *)
let test_registry_copy_into () =
  let make () =
    let r = Registry.create () in
    r, Registry.handle r "hits", Registry.handle r "nacks"
  in
  let src, hits, _ = make () and dst, dst_hits, dst_nacks = make () in
  Registry.bump_by hits 4;
  Registry.bump dst_nacks;
  Registry.copy_into ~src ~dst;
  Alcotest.(check (list (pair string int))) "same report" [ "hits", 4 ] (Registry.to_list dst);
  Registry.bump dst_hits;
  Alcotest.(check int) "handle still bumps the copy" 5 (Registry.get dst "hits");
  Alcotest.(check int) "source untouched" 4 (Registry.get src "hits");
  Registry.bump (Registry.handle src "evictions");
  Registry.bump (Registry.handle dst "probes");
  Registry.copy_into ~src ~dst;
  Alcotest.(check (list (pair string int))) "differing keys rebuilt"
    (Registry.to_list src) (Registry.to_list dst);
  Alcotest.(check string) "same layout"
    (Marshal.to_string src []) (Marshal.to_string dst []);
  Registry.bump dst_hits;
  Alcotest.(check int) "handle survives a rebuild" 5 (Registry.get dst "hits")

let test_handle_bump_zero_alloc () =
  let r = Registry.create () in
  let h = Registry.handle r "beats" in
  Registry.bump h;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Registry.bump h;
    Registry.bump_by h i
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "0 minor words across 20k bumps (saw %.0f)" allocated)
    true (allocated < 64.)

(* The float sort behind the percentiles equals the stdlib's stable sort
   on samples: duplicates, negatives and infinities, never NaN or -0.
   Lengths straddle the insertion-sort cutoff. *)
let prop_sort_matches_stdlib =
  let value =
    QCheck.Gen.(
      frequency
        [
          (4, map float_of_int (int_range (-20) 20));
          (3, float_range (-1e6) 1e6);
          (1, oneofl [ Float.infinity; Float.neg_infinity; Float.max_float; -.Float.max_float ]);
        ])
  in
  let gen = QCheck.Gen.(array_size (oneof [ int_bound 40; int_bound 3000 ]) value) in
  QCheck.Test.make ~name:"float sort matches the stdlib sort" ~count:300
    (QCheck.make gen ~print:QCheck.Print.(array float))
  @@ fun a ->
  let a = Array.map (fun x -> if x = 0. then 0. else x) a in
  let want = Array.copy a in
  Array.stable_sort Float.compare want;
  let got = Array.copy a in
  Sample.sort got;
  Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) want got

let tests =
  ( "stats",
    [
      Alcotest.test_case "median odd" `Quick test_median_odd;
      Alcotest.test_case "median even" `Quick test_median_even;
      Alcotest.test_case "percentiles" `Quick test_percentiles;
      Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
      Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
      Alcotest.test_case "empty raises" `Quick test_empty_raises;
      Alcotest.test_case "sorted cache invalidated" `Quick test_sorted_cache_invalidated;
      Alcotest.test_case "growth to 1000" `Quick test_growth;
      Alcotest.test_case "counter" `Quick test_counter;
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "handle binds on first bump" `Quick test_handle_binds_on_first_bump;
      Alcotest.test_case "bound handle bump allocates 0" `Quick test_handle_bump_zero_alloc;
      Alcotest.test_case "registry copy_into" `Quick test_registry_copy_into;
      QCheck_alcotest.to_alcotest prop_percentile_matches_reference;
      QCheck_alcotest.to_alcotest prop_median_bounded;
      QCheck_alcotest.to_alcotest prop_percentile_monotone;
      QCheck_alcotest.to_alcotest prop_sort_matches_stdlib;
    ] )
