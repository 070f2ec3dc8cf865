(* The durable-linearizability checker (lib/audit/dlin.ml): the holes the
   campaign's and the fleet's earlier oracles let through, each caught,
   and qcheck properties that the per-key set rule and the queue rule
   accept exactly the final states a whole-state reference enumerates. *)

module Dlin = Skipit_audit.Dlin
module Invariant = Skipit_audit.Invariant

let texts vs = List.map (fun v -> v.Invariant.detail) vs

let check_case (name, crashed, initial, history, snapshot, want) =
  Alcotest.(check (list string)) name want (texts (Dlin.set ~crashed ~initial history snapshot))

(* Histories as the callers build them: the campaign stamps acked ops by
   their schedule index, leaves a lookup out (it writes nothing) and has
   at most the crash's one op in flight; the fleet adds a touched-but-shed
   write as in flight beside the acked ones. *)
let test_holes () =
  List.iter check_case
    Dlin.
      [
        ( "a key only looked up, present after a crash",
          true,
          [],
          [ (3, Insert, Acked 0) ],
          [ 3; 5 ],
          [ "phantom element 5 in post-crash snapshot (never inserted)" ] );
        ( "a key only looked up, present after an uncrashed run",
          false,
          [],
          [ (3, Insert, Acked 0) ],
          [ 3; 5 ],
          [ "phantom element 5 in quiesced snapshot (never inserted)" ] );
        ( "pending delete of an absent key, the key present",
          true,
          [],
          [ (2, Insert, Acked 0); (2, Delete, Acked 1); (2, Delete, In_flight) ],
          [ 2 ],
          [ "durably-deleted key 2 resurrected after crash+repair" ] );
        ( "pending delete of a never-inserted key, the key present",
          true,
          [],
          [ (4, Delete, In_flight) ],
          [ 4 ],
          [ "phantom element 4 in post-crash snapshot (never inserted)" ] );
        ( "pending insert of a present key, the key absent",
          true,
          [],
          [ (6, Insert, Acked 0); (6, Insert, In_flight) ],
          [],
          [ "durably-inserted key 6 lost after crash+repair" ] );
        ( "fleet: shed insert after an acked insert, a replica missing the key",
          true,
          [ 1 ],
          [ (7, Insert, Acked 5); (7, Insert, In_flight) ],
          [ 1 ],
          [ "durably-inserted key 7 lost after crash+repair" ] );
      ]

let test_rule () =
  List.iter check_case
    Dlin.
      [
        ("the in-flight op landed", true, [], [ (6, Insert, Acked 0); (6, Delete, In_flight) ], [], []);
        ("the in-flight op did not land", true, [], [ (6, Insert, Acked 0); (6, Delete, In_flight) ], [ 6 ], []);
        ("the last acked write wins by stamp", false, [], [ (1, Delete, Acked 9); (1, Insert, Acked 2) ], [], []);
        ( "the initial state holds without writes",
          false,
          [ 1; 2 ],
          [ (2, Delete, Acked 0) ],
          [ 2 ],
          [ "durably-inserted key 1 lost at quiesce"; "durably-deleted key 2 resurrected at quiesce" ] );
      ];
  Alcotest.(check (list string))
    "queue: pending enqueue lost both ways"
    [ "queue mismatch after crash+repair: got [2], expected [1] (or with pending enqueue 2)" ]
    (texts Dlin.(queue ~crashed:true [ (Enqueue 1, Acked 0); (Enqueue 2, In_flight) ] [ 2 ]));
  Alcotest.(check (list string))
    "queue: pending dequeue applied" []
    (texts Dlin.(queue ~crashed:true [ (Enqueue 1, Acked 0); (Dequeue, In_flight) ] []))

(* == Whole-state reference =============================================== *)

(* The reference judges the whole final state: it replays the acked
   writes in stamp order over the initial state and accepts that state
   or, with the one pending op applied, that one.  Test-only oracle code. *)
let keys = 6

let replay_set initial acked =
  List.fold_left
    (fun s (_, k, present) -> List.filter (( <> ) k) s @ if present then [ k ] else [])
    initial
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) acked)

let same_set a b = List.sort_uniq Int.compare a = List.sort_uniq Int.compare b

let gen_set_case =
  let open QCheck.Gen in
  let* initial = list_size (int_bound keys) (int_range 1 keys) in
  let* n = int_bound 8 in
  let* stamps = shuffle_l (List.init n Fun.id) in
  let* acked = flatten_l (List.map (fun s -> map2 (fun k b -> s, k, b) (int_range 1 keys) bool) stamps) in
  let* pending = opt (pair (int_range 1 keys) bool) in
  let s0 = replay_set initial acked in
  let* landed = bool in
  let base =
    match pending, landed with Some pw, true -> replay_set s0 [ (n, fst pw, snd pw) ] | _ -> s0
  in
  let* flips = list_size (int_bound 2) (int_range 0 (keys + 1)) in
  let snapshot =
    List.fold_left (fun s k -> if List.mem k s then List.filter (( <> ) k) s else k :: s) base flips
  in
  let* crashed = bool in
  return (crashed, initial, acked, pending, snapshot)

let prop_set_matches_reference =
  QCheck.Test.make ~name:"set rule agrees with the whole-state reference" ~count:2000
    (QCheck.make gen_set_case ~print:(fun (_, initial, acked, pending, snapshot) ->
       let ints l = String.concat ";" (List.map string_of_int l) in
       Printf.sprintf "initial=[%s] acked=[%s] pending=%s snapshot=[%s]" (ints initial)
         (String.concat ";" (List.map (fun (s, k, b) -> Printf.sprintf "%d:%d=%b" s k b) acked))
         (match pending with Some (k, b) -> Printf.sprintf "%d=%b" k b | None -> "-")
         (ints snapshot)))
    (fun (crashed, initial, acked, pending, snapshot) ->
      let write b = if b then Dlin.Insert else Dlin.Delete in
      let history =
        List.map (fun (s, k, b) -> k, write b, Dlin.Acked s) acked
        @ Option.to_list (Option.map (fun (k, b) -> k, write b, Dlin.In_flight) pending)
      in
      let s0 = replay_set initial acked in
      let acceptable =
        s0 :: Option.to_list (Option.map (fun (k, b) -> replay_set s0 [ (0, k, b) ]) pending)
      in
      let reference = List.exists (same_set snapshot) acceptable in
      let dlin = Dlin.set ~crashed ~initial history snapshot = [] in
      reference = dlin
      || QCheck.Test.fail_reportf "reference %s, Dlin %s" (if reference then "accepts" else "rejects")
           (if dlin then "accepts" else "rejects"))

let replay_queue ops =
  List.fold_left
    (fun q -> function Dlin.Enqueue v -> q @ [ v ] | Dlin.Dequeue -> (match q with [] -> [] | _ :: t -> t))
    [] ops

let gen_queue_case =
  let open QCheck.Gen in
  let* n = int_bound 10 in
  let* kinds = list_repeat (n + 1) (int_bound 99) in
  let ops = List.mapi (fun i r -> if r < 60 then Dlin.Enqueue (i + 1) else Dlin.Dequeue) kinds in
  let acked = List.filteri (fun i _ -> i < n) ops in
  let* pending = opt (return (List.nth ops n)) in
  let* landed = bool in
  let base = replay_queue (acked @ if landed then Option.to_list pending else []) in
  let* edit = int_bound 3 in
  let* at = int_bound 10 in
  let snapshot =
    match edit, base with
    | 1, _ :: _ -> List.filteri (fun i _ -> i <> at mod List.length base) base
    | 2, _ -> base @ [ 100 + at ]
    | 3, a :: b :: t -> b :: a :: t
    | _ -> base
  in
  let* crashed = bool in
  let* history = shuffle_l (List.mapi (fun i op -> op, Dlin.Acked i) acked) in
  return (crashed, acked, pending, history, snapshot)

let prop_queue_matches_reference =
  QCheck.Test.make ~name:"queue rule agrees with the whole-state reference" ~count:2000
    (QCheck.make gen_queue_case ~print:(fun (_, acked, pending, _, snapshot) ->
       let op = function Dlin.Enqueue v -> Printf.sprintf "enq %d" v | Dlin.Dequeue -> "deq" in
       Printf.sprintf "acked=[%s] pending=%s snapshot=[%s]"
         (String.concat ";" (List.map op acked))
         (match pending with Some o -> op o | None -> "-")
         (String.concat ";" (List.map string_of_int snapshot))))
    (fun (crashed, acked, pending, history, snapshot) ->
      let acceptable =
        replay_queue acked :: Option.to_list (Option.map (fun o -> replay_queue (acked @ [ o ])) pending)
      in
      let history = history @ Option.to_list (Option.map (fun o -> o, Dlin.In_flight) pending) in
      List.mem snapshot acceptable = (Dlin.queue ~crashed history snapshot = []))

let tests =
  ( "dlin",
    [
      Alcotest.test_case "holes the earlier oracles let through" `Quick test_holes;
      Alcotest.test_case "per-key rule and queue verdicts" `Quick test_rule;
      QCheck_alcotest.to_alcotest prop_set_matches_reference;
      QCheck_alcotest.to_alcotest prop_queue_matches_reference;
    ] )
