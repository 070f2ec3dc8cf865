module Resource = Skipit_sim.Resource

let test_single_unit_serializes () =
  let r = Resource.create "r" in
  Alcotest.(check int) "first immediate" 0 (Resource.acquire_start r ~now:0 ~busy:10);
  Alcotest.(check int) "second queued" 20 (Resource.acquire_finish r ~now:0 ~busy:10);
  Alcotest.(check int) "third behind both" 20 (Resource.acquire_start r ~now:0 ~busy:10)

let test_parallel_units () =
  let r = Resource.create ~count:3 "r" in
  let starts = List.init 4 (fun _ -> Resource.acquire_start r ~now:0 ~busy:10) in
  Alcotest.(check (list int)) "three run now, fourth waits" [ 0; 0; 0; 10 ] starts

let test_idle_time_not_billed () =
  let r = Resource.create "r" in
  ignore (Resource.acquire_finish r ~now:0 ~busy:5);
  Alcotest.(check int) "starts at request time when idle" 100
    (Resource.acquire_start r ~now:100 ~busy:5);
  Alcotest.(check int) "and finishes busy cycles later" 115
    (Resource.acquire_finish r ~now:100 ~busy:10)

let test_all_free_at () =
  let r = Resource.create ~count:2 "r" in
  ignore (Resource.acquire_finish r ~now:0 ~busy:10);
  ignore (Resource.acquire_finish r ~now:0 ~busy:30);
  Alcotest.(check int) "all free when slowest done" 30 (Resource.all_free_at r);
  Alcotest.(check int) "earliest free" 10 (Resource.earliest_free r);
  Alcotest.(check int) "busy at t=5" 2 (Resource.busy_at r 5);
  Alcotest.(check int) "busy at t=15" 1 (Resource.busy_at r 15)

let test_pick_hold () =
  let r = Resource.create "r" in
  let i = Resource.min_index r in
  let s = Int.max 3 (Resource.earliest_free r) in
  Resource.hold r ~idx:i ~start:s ~finish:(s + 7);
  Alcotest.(check (pair int int)) "held from start to finish" (3, 10) (s, Resource.earliest_free r);
  Alcotest.(check int) "queued behind the hold" 10 (Resource.acquire_start r ~now:0 ~busy:0);
  Alcotest.check_raises "finish before start"
    (Invalid_argument "Resource.hold: finish < start") (fun () ->
      Resource.hold r ~idx:0 ~start:5 ~finish:4);
  let r = Resource.create ~count:2 "r" in
  Resource.hold r ~idx:(Resource.min_index r) ~start:0 ~finish:20;
  Alcotest.(check int) "next pick is the other unit" 1 (Resource.min_index r)

let test_banked_routing () =
  let b = Resource.Banked.create ~banks:4 "banks" in
  (* Same line → same bank → serialize; different lines → parallel. *)
  let f1 = Resource.Banked.acquire_finish b ~addr:0 ~line_bytes:64 ~now:0 ~busy:10 in
  let f2 = Resource.Banked.acquire_finish b ~addr:0 ~line_bytes:64 ~now:0 ~busy:10 in
  let f3 = Resource.Banked.acquire_finish b ~addr:64 ~line_bytes:64 ~now:0 ~busy:10 in
  Alcotest.(check int) "same bank serializes" (f1 + 10) f2;
  Alcotest.(check int) "other bank parallel" 10 f3;
  (* Bank index wraps. *)
  let bank0 = Resource.Banked.bank_of b ~addr:0 ~line_bytes:64 in
  let bank4 = Resource.Banked.bank_of b ~addr:(4 * 64) ~line_bytes:64 in
  Alcotest.(check string) "wraps modulo banks" (Resource.name bank0) (Resource.name bank4)

(* Naive reference model: a plain array of per-unit free times, scanned
   in full on every pick with the first-lowest-index tie-break.  A held
   unit's finish is written only at [hold], so an acquisition between a
   pick and its hold sees the unit still free and picks it too. *)
module Naive = struct
  type t = int array

  let create count : t = Array.make count 0

  let pick (t : t) =
    let best = ref 0 in
    for i = 1 to Array.length t - 1 do
      if t.(i) < t.(!best) then best := i
    done;
    !best

  let hold (t : t) ~idx ~start:_ ~finish = t.(idx) <- finish

  let acquire (t : t) ~now ~busy =
    let i = pick t in
    let start = max now t.(i) in
    hold t ~idx:i ~start ~finish:(start + busy);
    start + busy

  let earliest_free (t : t) = Array.fold_left min t.(0) t
  let all_free_at (t : t) = Array.fold_left max t.(0) t

  let busy_at (t : t) at =
    Array.fold_left (fun acc f -> if f > at then acc + 1 else acc) 0 t

  let reset (t : t) = Array.fill t 0 (Array.length t) 0
end

(* A script over either implementation.  [now] is drawn afresh for every
   step, so it moves backwards as well as forwards. *)
type step =
  | Acquire of int * int  (* now, busy *)
  | Dyn of int * int * (int * int) option
      (* pick/hold: now, busy, and an acquisition (now, busy) made between
         the pick and the hold *)
  | Reset

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun now busy -> Acquire (now, busy)) (int_range 0 200) (int_range 0 40));
        ( 3,
          map3
            (fun now busy inner -> Dyn (now, busy, inner))
            (int_range 0 200) (int_range 0 40)
            (opt (pair (int_range 0 200) (int_range 0 40))) );
        (1, return Reset);
      ])

let print_step = function
  | Acquire (n, b) -> Printf.sprintf "A(%d,%d)" n b
  | Dyn (n, b, None) -> Printf.sprintf "D(%d,%d)" n b
  | Dyn (n, b, Some (n', b')) -> Printf.sprintf "D(%d,%d,[%d,%d])" n b n' b'
  | Reset -> "R"

(* Run [steps], logging every picked unit, start, finish (an acquisition
   logs its finish) and the derived queries after each step. *)
let run_script ~acquire ~pick ~hold ~earliest_free ~all_free_at ~busy_at ~reset steps =
  let log = ref [] in
  let note l = log := l :: !log in
  List.iter
    (fun step ->
      let now =
        match step with
        | Acquire (now, busy) ->
          note [ acquire ~now ~busy ];
          now
        | Dyn (now, busy, inner) ->
          let i = pick () in
          let s = max now (earliest_free ()) in
          (match inner with
           | Some (now', busy') ->
             (* Reentrant: picked and held while the outer unit is open. *)
             let i' = pick () in
             let s' = max now' (earliest_free ()) in
             hold ~idx:i' ~start:s' ~finish:(s' + busy');
             note [ i'; s'; s' + busy' ]
           | None -> ());
          hold ~idx:i ~start:s ~finish:(s + busy);
          note [ i; s; s + busy ];
          now
        | Reset ->
          reset ();
          0
      in
      note [ earliest_free (); all_free_at (); busy_at now ])
    steps;
  List.rev !log

let prop_matches_naive_scan =
  QCheck.Test.make ~name:"cached argmin agrees with naive scan" ~count:500
    (QCheck.make
       ~print:(fun (count, steps) ->
         Printf.sprintf "count %d: %s" count (String.concat " " (List.map print_step steps)))
       QCheck.Gen.(pair (int_range 1 64) (list_size (int_range 1 80) step_gen)))
  @@ fun (count, steps) ->
  let r = Resource.create ~count "r" in
  let m = Naive.create count in
  let real =
    run_script ~acquire:(Resource.acquire_finish r)
      ~pick:(fun () -> Resource.min_index r)
      ~hold:(Resource.hold r)
      ~earliest_free:(fun () -> Resource.earliest_free r)
      ~all_free_at:(fun () -> Resource.all_free_at r)
      ~busy_at:(Resource.busy_at r)
      ~reset:(fun () -> Resource.reset r)
      steps
  in
  let naive =
    run_script ~acquire:(Naive.acquire m)
      ~pick:(fun () -> Naive.pick m)
      ~hold:(Naive.hold m)
      ~earliest_free:(fun () -> Naive.earliest_free m)
      ~all_free_at:(fun () -> Naive.all_free_at m)
      ~busy_at:(Naive.busy_at m)
      ~reset:(fun () -> Naive.reset m)
      steps
  in
  real = naive

let prop_start_never_before_now =
  QCheck.Test.make ~name:"start >= now always" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair (int_range 0 100) (int_range 0 20)))
  @@ fun reqs ->
  let r = Skipit_sim.Resource.create ~count:2 "r" in
  List.for_all
    (fun (now, busy) ->
      Resource.acquire_start r ~now ~busy >= now)
    reqs

let tests =
  ( "resource",
    [
      Alcotest.test_case "single unit serializes" `Quick test_single_unit_serializes;
      Alcotest.test_case "parallel units" `Quick test_parallel_units;
      Alcotest.test_case "idle time not billed" `Quick test_idle_time_not_billed;
      Alcotest.test_case "all_free_at/busy_at" `Quick test_all_free_at;
      Alcotest.test_case "pick/hold" `Quick test_pick_hold;
      Alcotest.test_case "banked routing" `Quick test_banked_routing;
      QCheck_alcotest.to_alcotest prop_start_never_before_now;
      QCheck_alcotest.to_alcotest prop_matches_naive_scan;
    ] )
