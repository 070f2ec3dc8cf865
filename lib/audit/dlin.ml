type ack = Acked of int | In_flight
type write = Insert | Delete
type queue_op = Enqueue of int | Dequeue

let verdict fmt = Printf.ksprintf (Invariant.make ~rule:"durability") fmt
let after ~crashed = if crashed then "after crash+repair" else "at quiesce"

(* The per-key state lives in arrays indexed by the key's rank among all
   the keys named: the crash campaign judges a few dozen writes at every
   boundary, and building hash tables for them cost more than the
   judgement. *)
let set ~crashed ~initial history snapshot =
  let keys =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.rev_append initial
            (List.rev_append snapshot (List.rev_map (fun (k, _, _) -> k) history))))
  in
  let n = Array.length keys in
  let rank k =
    let rec go lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) lsr 1 in
        if keys.(mid) <= k then go mid hi else go lo mid
    in
    go 0 n
  in
  (* Per key: the stamp and value of its last acked write ([no_write]
     when it has none; the initial state ranks below every stamp), the
     values its in-flight writes would leave, and its presence. *)
  let no_write = 0 and inserted = 1 and deleted = 2 in
  let stamp = Array.make n min_int and last = Array.make n no_write in
  let pending = Array.make n 0 and present = Array.make n false in
  List.iter (fun k -> last.(rank k) <- inserted) initial;
  List.iter
    (fun (k, w, ack) ->
      let i = rank k in
      let v = match w with Insert -> inserted | Delete -> deleted in
      match ack with
      | In_flight -> pending.(i) <- pending.(i) lor v
      | Acked s ->
        if last.(i) = no_write || stamp.(i) <= s then begin
          stamp.(i) <- s;
          last.(i) <- v
        end)
    history;
  List.iter (fun k -> present.(rank k) <- true) snapshot;
  let violations = ref [] in
  for i = n - 1 downto 0 do
    let p = if present.(i) then inserted else deleted in
    let want = if last.(i) = inserted then inserted else deleted in
    if p <> want && pending.(i) land p = 0 then
      violations :=
        (if last.(i) = no_write then
           verdict "phantom element %d in %s snapshot (never inserted)" keys.(i)
             (if crashed then "post-crash" else "quiesced")
         else if last.(i) = inserted then
           verdict "durably-inserted key %d lost %s" keys.(i) (after ~crashed)
         else verdict "durably-deleted key %d resurrected %s" keys.(i) (after ~crashed))
        :: !violations
  done;
  !violations

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
