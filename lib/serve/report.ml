module Latency = Skipit_obs.Latency
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module Ds_bench = Skipit_workload.Ds_bench

let default_rates ~quick =
  if quick then [ 2.; 8.; 24. ] else [ 1.; 2.; 4.; 8.; 12.; 16.; 24.; 32. ]

let pp_config ppf (cfg : Engine.config) =
  Format.fprintf ppf
    "serve: %s x %s x %s, %s arrivals, %s keys, mix %d:%d, %d clients, %d requests, \
     batch %d, depth %d, %d core%s, seed %d@,"
    (Ops.kind_name cfg.Engine.kind)
    (Pctx.mode_name cfg.Engine.mode)
    (Ds_bench.spec_name cfg.Engine.spec)
    (Arrival.process_name cfg.Engine.process)
    (Workload.name cfg.Engine.workload)
    (100 - cfg.Engine.update_pct) cfg.Engine.update_pct
    cfg.Engine.clients cfg.Engine.requests cfg.Engine.batch cfg.Engine.depth
    cfg.Engine.cores
    (if cfg.Engine.cores = 1 then "" else "s")
    cfg.Engine.seed

(* Latency columns render "-" when nothing was served. *)
let lat_cols (p : Engine.point) =
  match p.Engine.latency with
  | Some s ->
    ( Printf.sprintf "%.0f" s.Latency.p50,
      Printf.sprintf "%.0f" s.Latency.p95,
      Printf.sprintf "%.0f" s.Latency.p99,
      Printf.sprintf "%.0f" s.Latency.p999,
      Printf.sprintf "%.0f" s.Latency.max )
  | None -> "-", "-", "-", "-", "-"

let pp_table ppf points =
  Format.fprintf ppf "%8s %9s %7s %7s %7s %8s %8s %8s %8s %8s %7s %8s %6s@," "offered"
    "achieved" "served" "shed" "shed%" "p50" "p95" "p99" "p99.9" "max" "epochs" "wb"
    "skip%";
  List.iter
    (fun (p : Engine.point) ->
      let p50, p95, p99, p999, pmax = lat_cols p in
      Format.fprintf ppf
        "%8.1f %9.2f %7d %7d %6.1f%% %8s %8s %8s %8s %8s %7d %8d %5.1f%%@,"
        p.Engine.offered p.Engine.achieved p.Engine.served p.Engine.shed
        (100. *. Engine.shed_fraction p)
        p50 p95 p99 p999 pmax p.Engine.epochs p.Engine.flushes
        (100. *. Engine.skip_hit_rate p))
    points

let pp_csv ppf points =
  Format.fprintf ppf
    "offered,achieved,served,shed,shed_fraction,p50,p95,p99,p999,max,elapsed,epochs,flushes,deferred,passthrough,fences,skip_dropped,wb_submitted@,";
  List.iter
    (fun (p : Engine.point) ->
      let p50, p95, p99, p999, pmax = lat_cols p in
      Format.fprintf ppf "%.3f,%.3f,%d,%d,%.4f,%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d@,"
        p.Engine.offered p.Engine.achieved p.Engine.served p.Engine.shed
        (Engine.shed_fraction p) p50 p95 p99 p999 pmax p.Engine.elapsed p.Engine.epochs
        p.Engine.flushes p.Engine.deferred p.Engine.passthrough p.Engine.fences
        p.Engine.skip_dropped p.Engine.wb_submitted)
    points

let summary_json name (s : Latency.summary) =
  Printf.sprintf
    ", \"%s\": {\"count\": %d, \"mean\": %.2f, \"p50\": %.1f, \"p95\": %.1f, \
     \"p99\": %.1f, \"p999\": %.1f, \"max\": %.1f}"
    name s.Latency.count s.Latency.mean s.Latency.p50 s.Latency.p95 s.Latency.p99
    s.Latency.p999 s.Latency.max

let attribution_json (p : Engine.point) =
  match p.Engine.attribution with
  | [] -> ""
  | stages ->
    let fields =
      String.concat ", "
        (List.map (fun (name, c) -> Printf.sprintf "\"%s\": %d" name c) stages)
    in
    Printf.sprintf
      ", \"attribution\": {%s}, \"attr_requests\": %d, \"attr_trimmed\": %d, \
       \"attr_conserved\": %b"
      fields p.Engine.attr_requests p.Engine.attr_trimmed p.Engine.attr_conserved

let gap_json (p : Engine.point) =
  match p.Engine.gap with
  | None -> ""
  | Some g ->
    Printf.sprintf
      ", \"co_gap\": {\"p50\": %.1f, \"p99\": %.1f, \"p999\": %.1f}"
      g.Latency.gap_p50 g.Latency.gap_p99 g.Latency.gap_p999

(* The latency, coordinated-omission gap and attribution fields every JSON
   point carries. *)
let point_json (p : Engine.point) =
  let summary name = function Some s -> summary_json name s | None -> "" in
  summary "latency" p.Engine.latency
  ^ summary "dequeue_latency" p.Engine.dequeue_latency
  ^ gap_json p ^ attribution_json p

(* A JSON document: the config object (its common fields, then [extra]),
   then one object per point. *)
let document (cfg : Engine.config) ~extra point points =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf
       "{\n  \"config\": {\"structure\": \"%s\", \"mode\": \"%s\", \"strategy\": \"%s\", \
        \"arrival\": \"%s\", \"workload\": \"%s\", \"clients\": %d, \"requests\": %d, \
        \"batch\": %d, \"depth\": %d, \"cores\": %d, %s},\n  \"points\": [\n"
       (Ops.kind_name cfg.Engine.kind)
       (Pctx.mode_name cfg.Engine.mode)
       (Ds_bench.spec_name cfg.Engine.spec)
       (Arrival.process_name cfg.Engine.process)
       (Workload.name cfg.Engine.workload)
       cfg.Engine.clients cfg.Engine.requests cfg.Engine.batch cfg.Engine.depth
       cfg.Engine.cores extra);
  List.iteri
    (fun i p ->
      if i > 0 then add ",\n";
      add (point p);
      add "}")
    points;
  add "\n  ]\n}\n";
  Buffer.contents buf

let to_json (cfg : Engine.config) points =
  document cfg
    ~extra:
      (Printf.sprintf "\"key_range\": %d, \"update_pct\": %d, \"seed\": %d"
         cfg.Engine.key_range cfg.Engine.update_pct cfg.Engine.seed)
    (fun (p : Engine.point) ->
      Printf.sprintf
        "    {\"offered\": %.3f, \"achieved\": %.3f, \"served\": %d, \"shed\": %d, \
         \"shed_fraction\": %.4f, \"elapsed\": %d, \"epochs\": %d, \"flushes\": %d, \
         \"deferred\": %d, \"passthrough\": %d, \"fences\": %d, \
         \"skip_dropped\": %d, \"wb_submitted\": %d"
        p.Engine.offered p.Engine.achieved p.Engine.served p.Engine.shed
        (Engine.shed_fraction p) p.Engine.elapsed p.Engine.epochs p.Engine.flushes
        p.Engine.deferred p.Engine.passthrough p.Engine.fences
        p.Engine.skip_dropped p.Engine.wb_submitted
      ^ point_json p)
    points

(* A telemetry dump is the sweep JSON plus, per point, the run's windowed
   metrics registry.  Everything is simulated-cycle keyed, so the document
   is byte-identical at any --jobs width. *)
let telemetry_json (cfg : Engine.config) points =
  document cfg
    ~extra:(Printf.sprintf "\"seed\": %d, \"window\": %d" cfg.Engine.seed cfg.Engine.window)
    (fun (p : Engine.point) ->
      Printf.sprintf "    {\"offered\": %.3f, \"served\": %d, \"shed\": %d" p.Engine.offered
        p.Engine.served p.Engine.shed
      ^ point_json p
      ^
      match p.Engine.metrics with
      | Some m -> ", \"metrics\": " ^ Skipit_obs.Metrics.to_json m
      | None -> "")
    points
