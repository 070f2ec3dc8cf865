(* End-to-end latency aggregation over a recorded trace.

   Matches [Req_start]/[Req_end] pairs by id into per-class duration
   samples.  Ring-buffer wraparound (or a track filter that removed one
   side of a pair) surfaces as unmatched counts rather than silently
   skewing the histograms. *)

module Sample = Skipit_sim.Stats.Sample

type t = {
  by_class : (Trace.cls * Sample.t) list;
  all : Sample.t;
  unmatched_starts : int;
  unmatched_ends : int;
}

let sample t cls = List.assq cls t.by_class
let overall t = t.all
let unmatched_starts t = t.unmatched_starts
let unmatched_ends t = t.unmatched_ends

let of_trace trace =
  let by_class = List.map (fun c -> c, Sample.create ()) Trace.all_classes in
  let all = Sample.create () in
  let (), unmatched_starts, unmatched_ends =
    Trace.fold_spans trace ()
      ~other:(fun () _ -> ())
      ~span:(fun () { Trace.cls; t0; t1; _ } ->
        let d = float_of_int (t1 - t0) in
        Sample.add (List.assq cls by_class) d;
        Sample.add all d)
  in
  { by_class; all; unmatched_starts; unmatched_ends }

(* == Percentile summaries =============================================== *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

let summarize s =
  if Sample.is_empty s then None
  else
    Some
      {
        count = Sample.count s;
        mean = Sample.mean s;
        p50 = Sample.percentile s 50.;
        p95 = Sample.percentile s 95.;
        p99 = Sample.percentile s 99.;
        p999 = Sample.percentile s 99.9;
        max = Sample.max s;
      }

(* Recorded-vs-intended gap: how much a dequeue-stamped (coordinated-
   omission-blind) summary understates the intended-arrival-stamped truth
   at each tail percentile. *)
type gap = { gap_p50 : float; gap_p99 : float; gap_p999 : float }

let gap ~intended ~recorded =
  {
    gap_p50 = intended.p50 -. recorded.p50;
    gap_p99 = intended.p99 -. recorded.p99;
    gap_p999 = intended.p999 -. recorded.p999;
  }

let summaries t =
  List.filter_map
    (fun (cls, s) -> Option.map (fun sum -> Trace.cls_name cls, sum) (summarize s))
    t.by_class

let pp ppf t =
  let row name { count; mean; p50; p95; p99; p999; max } =
    Format.fprintf ppf "%-12s %8d %10.1f %8.0f %8.0f %8.0f %8.0f %8.0f@," name count mean
      p50 p95 p99 p999 max
  in
  Format.fprintf ppf "@[<v>%-12s %8s %10s %8s %8s %8s %8s %8s@," "class" "count" "mean"
    "p50" "p95" "p99" "p99.9" "max";
  List.iter (fun (name, s) -> row name s) (summaries t);
  (match summarize t.all with Some s -> row "overall" s | None -> ());
  if t.unmatched_starts > 0 || t.unmatched_ends > 0 then
    Format.fprintf ppf "unmatched: %d starts, %d ends (ring wraparound or filtered)@,"
      t.unmatched_starts t.unmatched_ends;
  Format.fprintf ppf "@]"
