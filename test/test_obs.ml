(* The observability layer: ring-buffer mechanics, request-span matching,
   the zero-impact contract (golden cycle counts with tracing ENABLED), a
   deterministic event fingerprint for a fixed trace program, and the
   structure of the Perfetto export. *)

module Trace = Skipit_obs.Trace
module Latency = Skipit_obs.Latency
module Perfetto = Skipit_obs.Perfetto
module S = Skipit_core.System
module C = Skipit_core.Config
module TP = Skipit_workload.Trace_program

let l1 ?(core = 0) ?(addr = 0x40) op = Trace.L1 { core; op; addr }

(* == Ring buffer ======================================================= *)

let test_ring_wraparound () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.add t ~at:i (l1 ~addr:i Trace.Load_hit)
  done;
  Alcotest.(check int) "length capped" 8 (Trace.length t);
  Alcotest.(check int) "dropped counted" 12 (Trace.dropped t);
  Alcotest.(check (list int)) "oldest-first survivors"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun r -> r.Trace.at) (Trace.records t))

let test_filter () =
  let t = Trace.create ~filter:[ "l1.0"; "dram" ] () in
  Trace.add t ~at:1 (l1 ~core:0 Trace.Load_hit);
  Trace.add t ~at:2 (l1 ~core:1 Trace.Load_hit);
  Trace.add t ~at:3 (Trace.Dram { op = Trace.Dram_read; addr = 0 });
  Alcotest.(check int) "core 1 filtered out" 2 (Trace.length t);
  Alcotest.(check (list string)) "kept tracks" [ "l1.0"; "dram" ]
    (List.map (fun r -> Trace.track r.Trace.ev) (Trace.records t))

let test_disabled_is_inert () =
  ignore (Trace.stop ());
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Trace.emit ~at:1 (l1 Trace.Load_hit) (* must not raise *);
  let id = Trace.req_start ~at:1 ~cls:Trace.Cls_load_miss ~core:0 ~addr:0 in
  Alcotest.(check int) "req_start returns -1 when disabled" (-1) id;
  Trace.req_end ~at:2 id

(* == Latency matching ================================================== *)

let test_latency_matching () =
  let t = Trace.create () in
  (* Two matched spans in one class, one in another, one unmatched start and
     one unmatched end. *)
  Trace.add t ~at:10 (Trace.Req_start { id = 1; cls = Trace.Cls_load_miss; core = 0; addr = 0x40 });
  Trace.add t ~at:60 (Trace.Req_end { id = 1 });
  Trace.add t ~at:20 (Trace.Req_start { id = 2; cls = Trace.Cls_load_miss; core = 0; addr = 0x80 });
  Trace.add t ~at:120 (Trace.Req_end { id = 2 });
  Trace.add t ~at:0 (Trace.Req_start { id = 3; cls = Trace.Cls_cbo_flush; core = 1; addr = 0xc0 });
  Trace.add t ~at:7 (Trace.Req_end { id = 3 });
  Trace.add t ~at:5 (Trace.Req_start { id = 4; cls = Trace.Cls_store_miss; core = 0; addr = 0x100 });
  Trace.add t ~at:9 (Trace.Req_end { id = 99 });
  let lat = Latency.of_trace t in
  let module Sample = Skipit_sim.Stats.Sample in
  Alcotest.(check int) "load_miss count" 2 (Sample.count (Latency.sample lat Trace.Cls_load_miss));
  Alcotest.(check (float 1e-9)) "load_miss median" 75.
    (Sample.median (Latency.sample lat Trace.Cls_load_miss));
  Alcotest.(check int) "cbo.flush count" 1 (Sample.count (Latency.sample lat Trace.Cls_cbo_flush));
  Alcotest.(check int) "overall count" 3 (Sample.count (Latency.overall lat));
  Alcotest.(check int) "unmatched starts" 1 (Latency.unmatched_starts lat);
  Alcotest.(check int) "unmatched ends" 1 (Latency.unmatched_ends lat);
  match Latency.summarize (Latency.overall lat) with
  | None -> Alcotest.fail "overall summary empty"
  | Some s ->
    Alcotest.(check int) "summary count" 3 s.Latency.count;
    Alcotest.(check (float 1e-9)) "summary max" 100. s.Latency.max

(* == Whole-system runs ================================================= *)

let trace = Example_trace.path

let run_traced ?(skip_it = true) name =
  match TP.load_file (trace name) with
  | Error e -> Alcotest.failf "trace %s: %s" name e
  | Ok program ->
    let cores = TP.max_core program + 1 in
    let sys = S.create (C.platform ~cores ~skip_it ()) in
    let (cycles, _), tr = Trace.with_trace (fun () -> TP.run sys program) in
    cycles, tr

(* The golden cycle counts must hold with tracing ENABLED: recording events
   may not perturb simulated time. *)
let test_golden_cycles_traced () =
  List.iter
    (fun (name, golden) ->
      List.iter
        (fun skip_it ->
          let cycles, tr = run_traced ~skip_it name in
          Alcotest.(check int)
            (Printf.sprintf "%s skip_it=%b (traced)" name skip_it)
            golden cycles;
          Alcotest.(check bool) (name ^ " produced events") true (Trace.length tr > 0))
        [ false; true ])
    [ "producer_consumer", 915; "redundant_flush", 1120; "fig5_semantics", 127 ]

(* Aggregate event counts by top-level component.  The fixed program is
   deterministic, so this fingerprint only moves when emission points are
   added, removed, or rescheduled — exactly the diff a reviewer wants to
   see. *)
let component_fingerprint tr =
  let tbl = Hashtbl.create 16 in
  Trace.iter tr (fun r ->
    let track = Trace.track r.Trace.ev in
    let comp =
      match String.index_opt track '.' with
      | Some i -> String.sub track 0 i
      | None -> track
    in
    Hashtbl.replace tbl comp (1 + Option.value ~default:0 (Hashtbl.find_opt tbl comp)));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let test_event_fingerprint () =
  let _, tr = run_traced ~skip_it:true "producer_consumer" in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr);
  Alcotest.(check (list (pair string int)))
    "producer_consumer component fingerprint"
    [ "dram", 10; "fu", 40; "l1", 47; "l2", 65; "port", 58; "req", 30 ]
    (component_fingerprint tr);
  (* Same program, same events: the trace is deterministic. *)
  let _, tr2 = run_traced ~skip_it:true "producer_consumer" in
  Alcotest.(check int) "same length on re-run" (Trace.length tr) (Trace.length tr2)

(* == Perfetto export =================================================== *)

(* Pull the first integer following [key] out of a JSON line. *)
let int_after line key =
  let klen = String.length key and len = String.length line in
  let rec find i =
    if i + klen > len then None
    else if String.sub line i klen = key then begin
      let j = ref (i + klen) in
      let start = !j in
      if !j < len && line.[!j] = '-' then incr j;
      while !j < len && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      if !j > start then Some (int_of_string (String.sub line start (!j - start)))
      else None
    end
    else find (i + 1)
  in
  find 0

let test_perfetto_structure () =
  let _, tr = run_traced ~skip_it:true "producer_consumer" in
  let json = Perfetto.to_string tr in
  let tail = {|],"displayTimeUnit":"ns"}|} ^ "\n" in
  Alcotest.(check bool) "wrapper object" true
    (String.length json > 40
    && String.sub json 0 16 = {|{"traceEvents":[|}
    && String.sub json (String.length json - String.length tail) (String.length tail)
       = tail);
  let tracks = Perfetto.tracks tr in
  Alcotest.(check bool)
    (Printf.sprintf "at least 5 tracks (got %d)" (List.length tracks))
    true
    (List.length tracks >= 5);
  let lines = String.split_on_char '\n' json in
  let thread_names = ref 0 and entries = ref 0 in
  let last_ts = Hashtbl.create 32 in
  List.iter
    (fun line ->
      (* Every entry line is one JSON object (the wrapper's opening line
         also starts with '{' but carries no "ph" field). *)
      if String.length line > 0 && line.[0] = '{' && int_after line {|"pid":|} <> None
      then begin
        let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 line in
        Alcotest.(check int) "balanced braces" (count '{') (count '}');
        if int_after line {|"thread_name"|} <> None then ();
        let is_meta =
          String.length line > 8
          && (let rec mem i =
                i + 13 <= String.length line
                && (String.sub line i 13 = {|"thread_name"|} || mem (i + 1))
              in
              mem 0)
        in
        if is_meta then incr thread_names;
        match int_after line {|"ts":|} with
        | None -> ()
        | Some ts ->
          incr entries;
          let tid = Option.get (int_after line {|"tid":|}) in
          (match Hashtbl.find_opt last_ts tid with
           | Some prev ->
             Alcotest.(check bool)
               (Printf.sprintf "non-decreasing ts on tid %d" tid)
               true (ts >= prev)
           | None -> ());
          Hashtbl.replace last_ts tid ts
      end)
    lines;
  Alcotest.(check int) "one thread_name per track" (List.length tracks) !thread_names;
  Alcotest.(check bool) "has timestamped entries" true (!entries > 50);
  (* Request spans render as complete slices with durations. *)
  let has_slice =
    List.exists
      (fun line -> int_after line {|"dur":|} <> None)
      lines
  in
  Alcotest.(check bool) "has X slices for request spans" true has_slice;
  (* Deterministic export: same trace, same bytes. *)
  Alcotest.(check string) "byte-identical re-export" json (Perfetto.to_string tr)

let tests =
  ( "obs",
    [
      Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
      Alcotest.test_case "track filter" `Quick test_filter;
      Alcotest.test_case "disabled sink is inert" `Quick test_disabled_is_inert;
      Alcotest.test_case "latency start/end matching" `Quick test_latency_matching;
      Alcotest.test_case "golden cycles with tracing on" `Quick test_golden_cycles_traced;
      Alcotest.test_case "event fingerprint" `Quick test_event_fingerprint;
      Alcotest.test_case "perfetto export structure" `Quick test_perfetto_structure;
    ] )
