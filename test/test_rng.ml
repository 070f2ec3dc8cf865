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

let test_split_independent () =
  let a = Skipit_sim.Rng.create ~seed:5 in
  let child = Skipit_sim.Rng.split a in
  (* The child stream should not replay the parent's continuation. *)
  let parent_next = Skipit_sim.Rng.next_int64 a in
  let child_next = Skipit_sim.Rng.next_int64 child in
  Alcotest.(check bool) "split diverges" true (parent_next <> child_next)

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

let tests =
  ( "rng",
    [
      Alcotest.test_case "first_below extremes" `Quick test_first_below_extremes;
      Alcotest.test_case "first_below at 2^-53 boundaries" `Quick
        test_first_below_boundaries;
      Alcotest.test_case "first_below limit cutoff" `Quick test_first_below_limit;
      QCheck_alcotest.to_alcotest prop_first_below_matches_chance;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
      Alcotest.test_case "copy preserves state" `Quick test_copy_preserves;
      Alcotest.test_case "split independent" `Quick test_split_independent;
      Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
      QCheck_alcotest.to_alcotest prop_int_bounds;
      QCheck_alcotest.to_alcotest prop_int_in_bounds;
      QCheck_alcotest.to_alcotest prop_float_unit;
      QCheck_alcotest.to_alcotest prop_shuffle_permutation;
    ] )
