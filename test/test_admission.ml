module A = Skipit_sim.Admission

let test_passthrough_when_space () =
  let a = A.create ~capacity:2 in
  Alcotest.(check int) "first enters now" 5 (A.admit a ~now:5);
  Alcotest.(check int) "second enters now" 6 (A.admit a ~now:6);
  Alcotest.(check int) "two occupants" 2 (A.occupants a)

let test_full_blocks_until_departure () =
  let a = A.create ~capacity:2 in
  ignore (A.admit a ~now:0);
  ignore (A.admit a ~now:0);
  A.release a ~at:50;
  A.release a ~at:80;
  (* Third waits for the first departure, fourth for the second. *)
  Alcotest.(check int) "third blocked to 50" 50 (A.admit a ~now:1);
  Alcotest.(check int) "fourth blocked to 80" 80 (A.admit a ~now:2);
  (* A late arrival after the departure is not delayed. *)
  A.release a ~at:60;
  A.release a ~at:90;
  Alcotest.(check int) "late arrival passes" 100 (A.admit a ~now:100)

let test_peek_entry_is_nonmutating () =
  let a = A.create ~capacity:2 in
  (* Empty room: entry is immediate, repeatedly. *)
  Alcotest.(check int) "peek with space" 7 (A.peek_entry a ~now:7);
  Alcotest.(check int) "peek again unchanged" 7 (A.peek_entry a ~now:7);
  Alcotest.(check int) "occupancy untouched" 0 (A.occupants a);
  ignore (A.admit a ~now:7);
  ignore (A.admit a ~now:7);
  (* Full, no departure recorded yet: a shedder sees "not now". *)
  Alcotest.(check int) "full + no departure = never" max_int (A.peek_entry a ~now:8);
  A.release a ~at:50;
  Alcotest.(check int) "full: entry at next departure" 50 (A.peek_entry a ~now:8);
  Alcotest.(check int) "peek matches admit" 50 (A.admit a ~now:8);
  (* After the real admit consumed the slot, peek sees a full room again. *)
  Alcotest.(check int) "slot consumed" max_int (A.peek_entry a ~now:9);
  A.release a ~at:40;
  Alcotest.(check int) "stale departure never beats now" 60 (A.peek_entry a ~now:60)

let test_capacity_guard () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Admission.create: capacity must be positive") (fun () ->
      ignore (A.create ~capacity:0))

let test_release_past_capacity () =
  let a = A.create ~capacity:2 in
  A.release a ~at:1;
  A.release a ~at:2;
  Alcotest.check_raises "third departure without an admission"
    (Invalid_argument "Admission.release: more departures than capacity") (fun () ->
      A.release a ~at:3)

(* The ring against the [Queue] implementation it replaced
   ([Ring_models.Admission]).  A release is issued only while someone is
   inside (a well-formed producer); an admission into a full room with no
   recorded departure must raise in both, and ends the script. *)
type adm_op = Admit of int | Peek of int | Release of int | Occupants | Reset | Copy

let print_adm_op = function
  | Admit n -> Printf.sprintf "A%d" n
  | Peek n -> Printf.sprintf "P%d" n
  | Release n -> Printf.sprintf "R%d" n
  | Occupants -> "O"
  | Reset -> "X"
  | Copy -> "C"

let adm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun n -> Admit n) (int_range 0 200));
        (3, map (fun n -> Peek n) (int_range 0 200));
        (5, map (fun n -> Release n) (int_range 0 300));
        (1, return Occupants);
        (1, return Reset);
        (1, return Copy);
      ])

let prop_ring_matches_queue =
  QCheck.Test.make ~name:"ring matches its Queue model" ~count:500
    (QCheck.make
       ~print:(fun (c, ops) ->
         Printf.sprintf "capacity %d: %s" c (String.concat " " (List.map print_adm_op ops)))
       QCheck.Gen.(pair (int_range 1 6) (list_size (int_range 1 120) adm_op_gen)))
  @@ fun (capacity, ops) ->
  let module M = Ring_models.Admission in
  let r = ref (A.create ~capacity) and m = ref (M.create ~capacity) in
  let raises f = match f () with _ -> false | exception _ -> true in
  let rec go = function
    | [] -> A.occupants !r = M.occupants !m && A.peek_entry !r ~now:0 = M.peek_entry !m ~now:0
    | op :: rest -> (
      match op with
      | Admit now -> (
        match M.admit !m ~now with
        | e -> A.admit !r ~now = e && go rest
        | exception _ -> raises (fun () -> A.admit !r ~now))
      | Peek now -> A.peek_entry !r ~now = M.peek_entry !m ~now && go rest
      | Release at ->
        if M.occupants !m > 0 then begin
          M.release !m ~at;
          A.release !r ~at
        end;
        go rest
      | Occupants -> A.occupants !r = M.occupants !m && go rest
      | Reset ->
        A.reset !r;
        M.reset !m;
        go rest
      | Copy ->
        (* Into a room with a history of its own, which must not show. *)
        let r' = A.create ~capacity and m' = M.create ~capacity in
        ignore (A.admit r' ~now:7);
        A.release r' ~at:9;
        ignore (M.admit m' ~now:7);
        M.release m' ~at:9;
        A.copy_into ~src:!r ~dst:r';
        M.copy_into ~src:!m ~dst:m';
        r := r';
        m := m';
        go rest)
  in
  go ops

let prop_admission_never_early =
  QCheck.Test.make ~name:"admission time >= arrival" ~count:300
    QCheck.(pair (int_range 1 4) (list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 50)))
  @@ fun (capacity, gaps) ->
  let a = A.create ~capacity in
  let now = ref 0 in
  List.for_all
    (fun gap ->
      now := !now + gap;
      let entry = A.admit a ~now:!now in
      A.release a ~at:(entry + 10);
      entry >= !now)
    gaps

let test_l2_list_buffer_backpressure () =
  (* Saturate the L2 MSHRs + ListBuffer with root releases: with a tiny
     buffer, senders stall measurably. *)
  let module S = Skipit_core.System in
  let module C = Skipit_core.Config in
  let run buffer =
    let params =
      { (C.platform ~cores:1 ()) with
        Skipit_cache.Params.l2_mshrs = 1;
        l2_list_buffer = buffer;
        n_fshrs = 16;
        flush_queue_depth = 16;
      }
    in
    let sys = S.create params in
    let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:64 (16 * 64) in
    for i = 0 to 15 do
      S.store sys ~core:0 (base + (i * 64)) i
    done;
    S.fence sys ~core:0;
    let t0 = S.clock sys ~core:0 in
    for i = 0 to 15 do
      S.flush sys ~core:0 (base + (i * 64))
    done;
    S.fence sys ~core:0;
    S.clock sys ~core:0 - t0
  in
  (* The total work is MSHR-bound either way; a 1-deep buffer must not be
     faster than a 16-deep one, and both complete. *)
  Alcotest.(check bool) "bounded buffer not faster" true (run 1 >= run 16)

let tests =
  ( "admission",
    [
      Alcotest.test_case "pass-through when space" `Quick test_passthrough_when_space;
      Alcotest.test_case "full blocks until departure" `Quick test_full_blocks_until_departure;
      Alcotest.test_case "peek_entry is non-mutating" `Quick test_peek_entry_is_nonmutating;
      Alcotest.test_case "capacity guard" `Quick test_capacity_guard;
      Alcotest.test_case "L2 ListBuffer back-pressure" `Quick test_l2_list_buffer_backpressure;
      QCheck_alcotest.to_alcotest prop_admission_never_early;
      Alcotest.test_case "release past capacity raises" `Quick test_release_past_capacity;
      QCheck_alcotest.to_alcotest prop_ring_matches_queue;
    ] )
