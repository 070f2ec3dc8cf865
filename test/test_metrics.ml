(* The windowed metrics registry and the cycle-accounting attributor:
   histogram bucket boundaries, window rollover, order-insensitive
   occupancy integration, byte-identical exports at any pool width, the
   hierarchy's series read off the trace event stream, and
   the cursor-segmentation conservation guarantee (including overshoot
   trimming). *)

module Metrics = Skipit_obs.Metrics
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution
module Engine = Skipit_serve.Engine
module Report = Skipit_serve.Report
module Pool = Skipit_par.Pool

(* == Histogram buckets ================================================== *)

let test_bucket_boundaries () =
  Alcotest.(check int) "0 lands in bucket 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "negatives land in bucket 0" 0 (Metrics.bucket_of (-5));
  Alcotest.(check int) "bucket 0 lower bound" 0 (Metrics.bucket_lo 0);
  for b = 1 to 20 do
    let lo = Metrics.bucket_lo b in
    Alcotest.(check int) (Printf.sprintf "2^%d lower edge" (b - 1)) b (Metrics.bucket_of lo);
    Alcotest.(check int)
      (Printf.sprintf "below bucket %d's lower edge" b)
      (b - 1)
      (Metrics.bucket_of (lo - 1));
    Alcotest.(check int)
      (Printf.sprintf "bucket %d's upper edge" b)
      b
      (Metrics.bucket_of ((2 * lo) - 1))
  done

(* == Window rollover ==================================================== *)

let test_window_rollover () =
  let m = Metrics.create ~window:100 () in
  Alcotest.(check int) "cycle 99 in window 0" 0 (Metrics.widx m ~at:99);
  Alcotest.(check int) "cycle 100 rolls to window 1" 1 (Metrics.widx m ~at:100);
  Metrics.counter_incr m "c" ~at:0;
  Metrics.counter_incr m "c" ~at:99;
  Metrics.counter_incr m "c" ~at:100;
  Metrics.counter_add m "c" ~at:250 3;
  Alcotest.(check (list (pair int int)))
    "counter windows split at the boundary"
    [ 0, 2; 1, 1; 2, 3 ]
    (Metrics.counter_series m "c");
  Alcotest.(check int) "counter total spans windows" 6 (Metrics.counter_total m "c");
  Metrics.occupancy_alloc m "o" ~at:10;
  Metrics.occupancy_alloc m "o" ~at:120;
  Metrics.occupancy_free m "o" ~at:130;
  Metrics.occupancy_free m "o" ~at:310;
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "occupancy level integrates across windows (gaps carry the level)"
    [ (0, 1), (0, 1); (1, 1), (1, 1); (3, 0), (1, 0) ]
    (List.map (fun (w, a, f, l) -> (w, a), (f, l)) (Metrics.occupancy_series m "o"));
  Metrics.histogram_observe m "h" ~at:50 7;
  Metrics.histogram_observe m "h" ~at:150 8;
  let count, sum = Metrics.histogram_totals m "h" in
  Alcotest.(check (pair int int)) "histogram totals span windows" (2, 15) (count, sum)

let test_occupancy_order_insensitive () =
  (* The level series is integrated at export from per-window deltas, so
     recording order — which varies with fiber interleaving — is
     irrelevant. *)
  let record events =
    let m = Metrics.create ~window:64 () in
    List.iter
      (fun (ev, at) ->
        match ev with
        | `A -> Metrics.occupancy_alloc m "r" ~at
        | `F -> Metrics.occupancy_free m "r" ~at)
      events;
    Metrics.occupancy_series m "r"
  in
  let events = [ `A, 10; `A, 70; `F, 75; `A, 200; `F, 210; `F, 220 ] in
  let shuffled = [ `F, 220; `A, 10; `F, 75; `A, 200; `A, 70; `F, 210 ] in
  Alcotest.(check bool) "series independent of recording order" true
    (record events = record shuffled)

(* == Export determinism across pool widths ============================== *)

let test_exports_byte_identical_across_jobs () =
  let cfg =
    {
      Engine.default with
      Engine.requests = 300;
      clients = 8;
      depth = 8;
      batch = 4;
      key_range = 256;
      prefill = 128;
      telemetry = true;
    }
  in
  let rates = [ 4.; 40. ] in
  let output pool =
    let points = Engine.sweep ?pool cfg ~rates in
    Report.telemetry_json cfg points
    ^ String.concat "\n"
        (List.concat_map
           (fun (p : Engine.point) ->
             match p.Engine.metrics with
             | Some m ->
               [ Metrics.to_prometheus m; Metrics.to_csv m; Metrics.to_json m ]
             | None -> [])
           points)
  in
  let seq = output None in
  let par = Pool.with_pool ~jobs:4 (fun pool -> output (Some pool)) in
  Alcotest.(check bool) "telemetry exports --jobs 1 vs --jobs 4 byte-identical" true
    (String.equal seq par);
  Alcotest.(check bool) "exports non-empty" true (String.length seq > 0)

(* == Metrics read the trace event stream =============================== *)

let small_telemetry_cfg =
  {
    Engine.default with
    Engine.requests = 300;
    clients = 8;
    depth = 8;
    batch = 4;
    key_range = 256;
    prefill = 128;
    telemetry = true;
  }

(* The serving window's records of a ring installed around [Engine.run]:
   every record from the first serve span on.  The prefill's events come
   before it, and the engine installs its metrics just before that span
   opens and removes them after the last commit. *)
let serving_window tr =
  let rec from_first_span = function
    | { Trace.ev = Trace.Req_start { cls = Trace.Cls_serve; _ }; _ } :: _ as rs -> rs
    | _ :: rs -> from_first_span rs
    | [] -> []
  in
  from_first_span (Trace.records tr)

(* Sorted [(window, n)] pairs of the records [f] selects: a series per
   window, and so in total. *)
let event_windows m records f =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if f r.Trace.ev then begin
        let w = Metrics.widx m ~at:r.Trace.at in
        Hashtbl.replace tbl w (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w))
      end)
    records;
  Hashtbl.fold (fun w n acc -> (w, n) :: acc) tbl [] |> List.sort compare

let test_metrics_follow_trace () =
  let p, tr =
    Trace.with_trace ~capacity:(1 lsl 18) (fun () -> Engine.run small_telemetry_cfg ~rate:16.)
  in
  Alcotest.(check int) "the ring dropped nothing" 0 (Trace.dropped tr);
  let m = Option.get p.Engine.metrics in
  let records = serving_window tr in
  let pairs = Alcotest.(list (pair int int)) in
  let non_empty name series =
    Alcotest.(check bool) (name ^ " recorded something") true (series <> [])
  in
  let counter name f =
    let want = event_windows m records f in
    non_empty name want;
    Alcotest.check pairs (name ^ " per window") want (Metrics.counter_series m name)
  in
  let occupancy name ~alloc ~free =
    let rows = Metrics.occupancy_series m name in
    let side pick =
      List.filter_map (fun r -> match pick r with _, 0 -> None | wn -> Some wn) rows
    in
    let want_allocs = event_windows m records alloc in
    non_empty name want_allocs;
    Alcotest.check pairs (name ^ " allocs per window") want_allocs
      (side (fun (w, a, _, _) -> w, a));
    Alcotest.check pairs (name ^ " frees per window") (event_windows m records free)
      (side (fun (w, _, f, _) -> w, f))
  in
  counter "dram.reads" (function Trace.Dram { op = Trace.Dram_read; _ } -> true | _ -> false);
  counter "dram.writes" (function Trace.Dram { op = Trace.Dram_write; _ } -> true | _ -> false);
  counter "fu.0.q.enqueues" (function
    | Trace.Flushq { name = "fu.0.q"; op = Trace.Q_enqueue; _ } -> true
    | _ -> false);
  let fshr op = function Trace.Fshr { core = 0; op = o; _ } -> o = op | _ -> false in
  counter "fu.0.dequeues" (fshr Trace.Fshr_alloc);
  occupancy "fu.0.fshr" ~alloc:(fshr Trace.Fshr_alloc) ~free:(fshr Trace.Fshr_free);
  List.iter
    (fun comp ->
      let res op = function
        | Trace.Resource { comp = c; op = o; _ } -> c = comp && o = op
        | _ -> false
      in
      occupancy comp ~alloc:(res Trace.Res_alloc) ~free:(res Trace.Res_free))
    [ "l1.0.mshr"; "l2.mshr" ]

(* A request-only ring under a telemetry run, as perfbench's traced serve
   run installs it: the metrics listener turns [Trace.enabled] on, yet the
   ring keeps only request spans, and neither changes the point. *)
let test_reqs_only_ring_with_telemetry () =
  let untraced = Engine.run small_telemetry_cfg ~rate:16. in
  let tr = Trace.start ~capacity:(1 lsl 16) ~reqs_only:true () in
  let traced =
    Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) (fun () ->
      Engine.run small_telemetry_cfg ~rate:16.)
  in
  Alcotest.(check int) "the ring dropped nothing" 0 (Trace.dropped tr);
  Alcotest.(check bool) "the ring holds request spans" true (Trace.length tr > 0);
  let records = Trace.records tr in
  List.iter
    (fun r ->
      match r.Trace.ev with
      | Trace.Req_start _ | Trace.Req_end _ -> ()
      | ev ->
        Alcotest.failf "detail event %s on %s in the ring" (Trace.event_name ev) (Trace.track ev))
    records;
  let serve_spans =
    List.fold_left
      (fun n r ->
        match r.Trace.ev with Trace.Req_start { cls = Trace.Cls_serve; _ } -> n + 1 | _ -> n)
      0 records
  in
  Alcotest.(check int) "one serve span per served request" traced.Engine.served serve_spans;
  Alcotest.(check int) "elapsed" untraced.Engine.elapsed traced.Engine.elapsed;
  Alcotest.(check int) "served" untraced.Engine.served traced.Engine.served;
  Alcotest.(check int) "shed" untraced.Engine.shed traced.Engine.shed;
  Alcotest.(check bool) "latency summary" true (untraced.Engine.latency = traced.Engine.latency);
  Alcotest.(check bool) "dequeue latency summary" true
    (untraced.Engine.dequeue_latency = traced.Engine.dequeue_latency);
  Alcotest.(check string) "metrics"
    (Metrics.to_json (Option.get untraced.Engine.metrics))
    (Metrics.to_json (Option.get traced.Engine.metrics))

(* == Attribution segmentation =========================================== *)

let totals_assoc a = Attr.totals a

let stage_total a stage = List.assoc (Attr.stage_name stage) (totals_assoc a)

let test_attribution_segmentation () =
  let a = Attr.create ~keep_records:true () in
  let fr = Attr.frame ~at:100 in
  Attr.mark_frame fr Attr.L1_hit ~at:150;
  (* A mark at or behind the cursor charges nothing. *)
  Attr.mark_frame fr Attr.Mshr ~at:140;
  Attr.mark_frame fr Attr.Dram ~at:180;
  Alcotest.(check int) "frame total so far" 80 (Attr.frame_total fr);
  Attr.close a fr ~at:200;
  Alcotest.(check int) "l1 cycles" 50 (stage_total a Attr.L1_hit);
  Alcotest.(check int) "behind-cursor mark charged nothing" 0 (stage_total a Attr.Mshr);
  Alcotest.(check int) "dram cycles" 30 (stage_total a Attr.Dram);
  Alcotest.(check int) "residual lands in other" 20 (stage_total a Attr.Other);
  Alcotest.(check int) "one request" 1 (Attr.requests a);
  Alcotest.(check int) "nothing trimmed" 0 (Attr.trimmed a);
  Alcotest.(check bool) "conserved" true (Attr.conserved a);
  (match Attr.records a with
   | [ r ] ->
     Alcotest.(check int) "record total is the span" 100 r.Attr.total;
     Alcotest.(check int) "record cycles sum to the span" 100
       (Array.fold_left ( + ) 0 r.Attr.cycles)
   | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length rs)))

let test_attribution_overshoot_trim () =
  (* A mark later than the close stamp — background work that escaped the
     suspend bracketing — is trimmed back so conservation still holds. *)
  let a = Attr.create ~keep_records:true () in
  let fr = Attr.frame ~at:0 in
  Attr.mark_frame fr Attr.L1_hit ~at:50;
  Attr.mark_frame fr Attr.Dram ~at:120;
  Attr.close a fr ~at:100;
  Alcotest.(check int) "l1 keeps its cycles" 50 (stage_total a Attr.L1_hit);
  Alcotest.(check int) "dram trimmed to the span" 50 (stage_total a Attr.Dram);
  Alcotest.(check int) "trimming close counted" 1 (Attr.trimmed a);
  Alcotest.(check bool) "conserved after trim" true (Attr.conserved a);
  (match Attr.records a with
   | [ r ] ->
     Alcotest.(check int) "trimmed record sums to the span" 100
       (Array.fold_left ( + ) 0 r.Attr.cycles)
   | _ -> Alcotest.fail "expected 1 record")

let test_attribution_sink_binding () =
  (* With no sink installed every ambient hook is a no-op. *)
  Attr.mark Attr.Dram ~at:10;
  Attr.activate ~core:3;
  Alcotest.(check bool) "no sink: disabled" false (Attr.enabled ());
  let _installed = Attr.start ~cores:2 () in
  let fr = Attr.frame ~at:0 in
  Attr.bind ~core:1 (Some fr);
  Attr.mark Attr.L1_hit ~at:10;
  (* Another core's context: no frame bound there, marks vanish. *)
  Attr.activate ~core:0;
  Attr.mark Attr.Dram ~at:30;
  (* Back on core 1 the frame resumes from its own cursor. *)
  Attr.activate ~core:1;
  Attr.mark Attr.Dram ~at:25;
  let saved = Attr.suspend () in
  Attr.mark Attr.Fence ~at:90;
  Attr.restore saved;
  let a = Option.get (Attr.stop ()) in
  Attr.close a fr ~at:40;
  Alcotest.(check int) "core-1 l1 cycles" 10 (stage_total a Attr.L1_hit);
  Alcotest.(check int) "core-1 dram cycles" 15 (stage_total a Attr.Dram);
  Alcotest.(check int) "suspended mark charged nothing" 0 (stage_total a Attr.Fence);
  Alcotest.(check int) "residual" 15 (stage_total a Attr.Other);
  Alcotest.(check bool) "conserved" true (Attr.conserved a)

let tests =
  ( "metrics",
    [
      Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
      Alcotest.test_case "window rollover" `Quick test_window_rollover;
      Alcotest.test_case "occupancy is order-insensitive" `Quick
        test_occupancy_order_insensitive;
      Alcotest.test_case "exports byte-identical at any width" `Slow
        test_exports_byte_identical_across_jobs;
      Alcotest.test_case "metrics follow the trace" `Quick test_metrics_follow_trace;
      Alcotest.test_case "request-only ring with telemetry on" `Quick
        test_reqs_only_ring_with_telemetry;
      Alcotest.test_case "attribution segmentation" `Quick test_attribution_segmentation;
      Alcotest.test_case "attribution trims overshoot" `Quick
        test_attribution_overshoot_trim;
      Alcotest.test_case "attribution sink binding" `Quick test_attribution_sink_binding;
    ] )
