type ack = Acked of int | In_flight
type write = Insert | Delete
type queue_op = Enqueue of int | Dequeue

let verdict fmt = Printf.ksprintf (Invariant.make ~rule:"durability") fmt
let after ~crashed = if crashed then "after crash+repair" else "at quiesce"

let set ~crashed ~initial history snapshot =
  (* key -> (stamp, present) of its last acked write; the initial state
     ranks below every stamp. *)
  let last = Hashtbl.create 64 and in_flight = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace last k (min_int, true)) initial;
  List.iter
    (fun (k, w, ack) ->
      let v = w = Insert in
      match ack with
      | In_flight -> Hashtbl.add in_flight k v
      | Acked s -> (
        match Hashtbl.find_opt last k with
        | Some (s', _) when s' > s -> ()
        | _ -> Hashtbl.replace last k (s, v)))
    history;
  let present = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace present k ()) snapshot;
  let keys =
    List.sort_uniq Int.compare
      (initial @ List.map (fun (k, _, _) -> k) history @ snapshot)
  in
  List.filter_map
    (fun k ->
      let p = Hashtbl.mem present k in
      let want = Option.map snd (Hashtbl.find_opt last k) in
      if p = (want = Some true) || List.mem p (Hashtbl.find_all in_flight k) then None
      else
        Some
          (match want with
           | None ->
             verdict "phantom element %d in %s snapshot (never inserted)" k
               (if crashed then "post-crash" else "quiesced")
           | Some true -> verdict "durably-inserted key %d lost %s" k (after ~crashed)
           | Some false -> verdict "durably-deleted key %d resurrected %s" k (after ~crashed)))
    keys

let apply q = function Enqueue v -> q @ [ v ] | Dequeue -> ( match q with [] -> [] | _ :: t -> t)

let queue ~crashed history snapshot =
  let acked =
    List.filter_map (function op, Acked s -> Some (s, op) | _, In_flight -> None) history
  in
  let base =
    List.fold_left (fun q (_, op) -> apply q op) []
      (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) acked)
  in
  let pending = List.filter_map (function op, In_flight -> Some op | _, Acked _ -> None) history in
  if List.mem snapshot (base :: List.map (apply base) pending) then []
  else
    let show q = String.concat "; " (List.map string_of_int q) in
    [
      verdict "queue mismatch %s: got [%s], expected [%s]%s" (after ~crashed) (show snapshot)
        (show base)
        (String.concat ""
           (List.map
              (function
                | Enqueue v -> Printf.sprintf " (or with pending enqueue %d)" v
                | Dequeue -> " (or with pending dequeue applied)")
              pending));
    ]
