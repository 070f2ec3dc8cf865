(* The deterministic RNG underpins experiment reproducibility. *)

let test_determinism () =
  let a = Skipit_sim.Rng.create ~seed:123 in
  let b = Skipit_sim.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Skipit_sim.Rng.next_int64 a)
      (Skipit_sim.Rng.next_int64 b)
  done

let test_seeds_differ () =
  let a = Skipit_sim.Rng.create ~seed:1 in
  let b = Skipit_sim.Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Skipit_sim.Rng.next_int64 a = Skipit_sim.Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_copy_preserves () =
  let a = Skipit_sim.Rng.create ~seed:9 in
  ignore (Skipit_sim.Rng.next_int64 a);
  let b = Skipit_sim.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Skipit_sim.Rng.next_int64 a)
    (Skipit_sim.Rng.next_int64 b)

let prop_int_bounds =
  QCheck.Test.make ~name:"int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
  @@ fun (seed, bound) ->
  let rng = Skipit_sim.Rng.create ~seed in
  let v = Skipit_sim.Rng.int rng bound in
  v >= 0 && v < bound

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int_in within inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
  @@ fun (seed, lo, width) ->
  let rng = Skipit_sim.Rng.create ~seed in
  let v = Skipit_sim.Rng.int_in rng ~lo ~hi:(lo + width) in
  v >= lo && v <= lo + width

let prop_float_unit =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.small_int @@ fun seed ->
  let rng = Skipit_sim.Rng.create ~seed in
  let v = Skipit_sim.Rng.float rng in
  v >= 0. && v < 1.

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 0 40) int))
  @@ fun (seed, xs) ->
  let rng = Skipit_sim.Rng.create ~seed in
  let arr = Array.of_list xs in
  Skipit_sim.Rng.shuffle rng arr;
  List.sort compare (Array.to_list arr) = List.sort compare xs

let test_chance_extremes () =
  let rng = Skipit_sim.Rng.create ~seed:3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Skipit_sim.Rng.chance rng 1.0);
    Alcotest.(check bool) "p=0 always false" false (Skipit_sim.Rng.chance rng 0.0)
  done

(* [first_below] spelled as the [chance] loop it replaces: stop at the first
   success or after [limit] failures. *)
let chance_loop rng p limit =
  let n = ref 0 in
  while !n < limit && not (Skipit_sim.Rng.chance rng p) do
    incr n
  done;
  !n

(* Same count from both, and both streams left at the same state. *)
let agrees ~seed p limit =
  let a = Skipit_sim.Rng.create ~seed and b = Skipit_sim.Rng.create ~seed in
  let n =
    Skipit_sim.Rng.first_below a ~threshold:(Skipit_sim.Rng.chance_threshold p) ~limit
  in
  let m = chance_loop b p limit in
  n = m && Skipit_sim.Rng.next_int64 a = Skipit_sim.Rng.next_int64 b

let test_first_below_extremes () =
  List.iter
    (fun (label, p, expect) ->
      for seed = 0 to 20 do
        Alcotest.(check bool) (label ^ " agrees with chance") true (agrees ~seed p 50);
        let rng = Skipit_sim.Rng.create ~seed in
        Alcotest.(check int) (label ^ " count")
          expect
          (Skipit_sim.Rng.first_below rng
             ~threshold:(Skipit_sim.Rng.chance_threshold p) ~limit:50)
      done)
    [ "p=0", 0., 50; "p=1", 1., 0; "p=nan", Float.nan, 50; "p=-1", -1., 50; "p=2", 2., 0 ]

let test_first_below_boundaries () =
  (* Put p exactly on the first draw's value [r * 2^-53], one ulp either
     side, and on the next multiple: the integer threshold must decide each
     exactly as the float comparison does. *)
  let scale = ldexp 1. (-53) in
  for seed = 0 to 63 do
    let r =
      Int64.to_int
        (Int64.shift_right_logical
           (Skipit_sim.Rng.next_int64 (Skipit_sim.Rng.create ~seed))
           11)
    in
    let on = float_of_int r *. scale and next = float_of_int (r + 1) *. scale in
    Alcotest.(check int) "threshold of a multiple of 2^-53" r
      (Skipit_sim.Rng.chance_threshold on);
    List.iter
      (fun p ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d p=%h agrees" seed p)
          true
          (agrees ~seed p 1 && agrees ~seed p 3))
      [ on; Float.pred on; Float.succ on; next; Float.pred next; Float.succ next ]
  done

let test_first_below_limit () =
  (* Cut off mid-stream: exactly [limit] draws consumed, no more. *)
  for seed = 0 to 20 do
    List.iter
      (fun limit ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d limit %d" seed limit)
          true (agrees ~seed 1e-4 limit))
      [ 0; 1; 2; 17; 1000 ]
  done;
  let rng = Skipit_sim.Rng.create ~seed:1 in
  Alcotest.(check int) "limit 0 draws nothing" 0
    (Skipit_sim.Rng.first_below rng ~threshold:(1 lsl 53) ~limit:0);
  Alcotest.(check int64) "state untouched"
    (Skipit_sim.Rng.next_int64 (Skipit_sim.Rng.create ~seed:1))
    (Skipit_sim.Rng.next_int64 rng)

let prop_first_below_matches_chance =
  QCheck.Test.make ~name:"first_below = chance loop, draw for draw" ~count:300
    QCheck.(
      triple small_int (float_range (-7.) 0.4) (int_range 0 20_000))
  @@ fun (seed, e, limit) -> agrees ~seed (10. ** e) limit

(* The two scan kernels behind [first_below] (lib/sim/rng_stubs.c), bound
   on their exported symbols.  Each maps a state, threshold and limit to
   [first_below]'s count and leaves the state to the caller. *)
external scan_scalar :
  (int64[@unboxed]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "skipit_rng_first_below_scalar_byte" "skipit_rng_first_below_scalar"
[@@noalloc]

external scan_avx512 :
  (int64[@unboxed]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "skipit_rng_first_below_avx512_byte" "skipit_rng_first_below_avx512"
[@@noalloc]

external avx512_usable : unit -> bool = "skipit_rng_avx512_usable" [@@noalloc]

let gamma = 0x9E3779B97F4A7C15L

(* splitmix64's output for the state after its increment. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* [chance p] with [p = threshold * 2^-53] is exactly [top53 < threshold]
   ([chance_threshold] inverts this scaling), and [p <= 0] / [p >= 1]
   exactly when [threshold <= 0] / [threshold >= 2^53]. *)
let p_of_threshold threshold = ldexp (float_of_int threshold) (-53)

(* The kernel returns [chance_loop]'s count from [Rng.create ~seed]'s state
   ([Int64.of_int seed]), and the state [first_below] writes back from it,
   [s0 + consumed * gamma], continues exactly where the oracle's does. *)
let check_kernel scan ~seed ~threshold ~limit =
  let s0 = Int64.of_int seed in
  let n = scan s0 threshold limit in
  let oracle = Skipit_sim.Rng.create ~seed in
  let m = chance_loop oracle (p_of_threshold threshold) limit in
  let label = Printf.sprintf "seed %d threshold %d limit %d" seed threshold limit in
  Alcotest.(check int) (label ^ ": count") m n;
  let consumed = if n < limit then n + 1 else n in
  let state = Int64.add s0 (Int64.mul (Int64.of_int consumed) gamma) in
  Alcotest.(check int64) (label ^ ": state after")
    (Skipit_sim.Rng.next_int64 oracle)
    (mix (Int64.add state gamma))

(* The first seed from 0 whose first [k + 1] draws satisfy [ok]. *)
let rec seed_where k ok seed =
  let rng = Skipit_sim.Rng.create ~seed in
  let d = Array.init (k + 1) (fun _ -> Skipit_sim.Rng.next_int64 rng) in
  if ok d then (seed, d.(k)) else seed_where k ok (seed + 1)

let top53 z = Int64.to_int (Int64.shift_right_logical z 11)

(* For each index k, a seed whose draw k is below all earlier draws: with
   threshold [top53 d_k + 1] the first hit is draw k, with [top53 d_k] it
   is later.  Up to k = 15 the draw's low 11 bits are also zero, so it
   sits exactly on the kernels' 64-bit bound [threshold << 11].  Indices
   0-7 are the AVX-512 kernel's lanes, 8-15 its second block; limits that
   are not multiples of 8 or 4 put hits in each kernel's scalar tail. *)
let test_kernel_each_position scan () =
  let last = 28 in
  for k = 0 to last do
    let ok d =
      let dk = top53 d.(k) in
      (k > 15 || Int64.logand d.(k) 0x7FFL = 0L)
      && Array.for_all (fun z -> top53 z > dk) (Array.sub d 0 k)
    in
    let seed, z = seed_where k ok 0 in
    let dk = top53 z in
    List.iter
      (fun limit ->
        if limit > k then begin
          check_kernel scan ~seed ~threshold:(dk + 1) ~limit;
          Alcotest.(check int) "first hit" k (scan (Int64.of_int seed) (dk + 1) limit);
          check_kernel scan ~seed ~threshold:dk ~limit
        end)
      [ k + 1; k + 2; 8; 16; 21; 24; last + 1 ]
  done

(* Limits of 0 and below draw nothing and leave the state untouched. *)
let test_kernel_edges scan () =
  let two_53 = 1 lsl 53 in
  List.iter
    (fun threshold ->
      List.iter
        (fun limit ->
          for seed = 0 to 7 do
            check_kernel scan ~seed ~threshold ~limit
          done)
        [ min_int; -9; -1; 0; 1; 3; 7; 8; 9; 100 ])
    [ min_int; -1; 0; 1; two_53 - 1; two_53; two_53 + 1; max_int ]

let test_kernel_long_walk scan () =
  (* p = 1e-7 over 3e6 draws: some seeds hit late, some run to the limit. *)
  let threshold = Skipit_sim.Rng.chance_threshold 1e-7 in
  let limit = 3_000_000 in
  let hits = ref 0 in
  for seed = 0 to 5 do
    check_kernel scan ~seed ~threshold ~limit;
    if scan (Int64.of_int seed) threshold limit < limit then incr hits
  done;
  Alcotest.(check bool) "both outcomes" true (!hits > 0 && !hits < 6)

(* On a CPU without AVX-512F/DQ the wide kernel cannot run: say so and
   report the case as skipped, never as passed. *)
let wide test () =
  if avx512_usable () then test scan_avx512 ()
  else begin
    print_endline "AVX-512F/DQ not available on this CPU: AVX-512 kernel not tested";
    Alcotest.skip ()
  end

let tests =
  ( "rng",
    [
      Alcotest.test_case "first_below extremes" `Quick test_first_below_extremes;
      Alcotest.test_case "first_below at 2^-53 boundaries" `Quick
        test_first_below_boundaries;
      Alcotest.test_case "first_below limit cutoff" `Quick test_first_below_limit;
      QCheck_alcotest.to_alcotest prop_first_below_matches_chance;
      Alcotest.test_case "scalar kernel: first hit at each position" `Quick
        (test_kernel_each_position scan_scalar);
      Alcotest.test_case "scalar kernel: threshold and limit edges" `Quick
        (test_kernel_edges scan_scalar);
      Alcotest.test_case "scalar kernel: long walk" `Quick
        (test_kernel_long_walk scan_scalar);
      Alcotest.test_case "avx512 kernel: first hit at each position" `Quick
        (wide test_kernel_each_position);
      Alcotest.test_case "avx512 kernel: threshold and limit edges" `Quick
        (wide test_kernel_edges);
      Alcotest.test_case "avx512 kernel: long walk" `Quick
        (wide test_kernel_long_walk);
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
      Alcotest.test_case "copy preserves state" `Quick test_copy_preserves;
      Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
      QCheck_alcotest.to_alcotest prop_int_bounds;
      QCheck_alcotest.to_alcotest prop_int_in_bounds;
      QCheck_alcotest.to_alcotest prop_float_unit;
      QCheck_alcotest.to_alcotest prop_shuffle_permutation;
    ] )
