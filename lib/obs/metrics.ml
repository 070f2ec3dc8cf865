(* Windowed metrics registry keyed to *simulated* cycles.

   Counters, occupancy series and log2-bucket histograms, all aggregated
   into fixed-width windows of the simulated clock — never the wall clock —
   so the registry's contents are a pure function of the simulation and
   byte-identical at any [--jobs] width.  Like [Trace] the installed sink
   is domain-local and every hierarchy hook is guarded by [enabled ()]
   (one ref read), so an uninstrumented run does no extra work and
   recording never alters simulated timing.

   Occupancy is stored as per-window alloc/free deltas; the level series
   is integrated at export time, which makes recording insensitive to the
   order hooks fire within a window — another determinism guarantee. *)

let default_window = 1024

(* Histograms bucket by bit width: value v >= 0 lands in bucket
   [bits v] covering [2^(b-1), 2^b).  Bucket 0 holds v <= 0. *)
let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits v 0

let bucket_lo = function 0 -> 0 | b -> 1 lsl (b - 1)
let max_buckets = 63

type windowed = (int, int ref) Hashtbl.t  (* window index -> value *)

type hist_window = { mutable count : int; mutable sum : int; buckets : int array }

type occ = { allocs : windowed; frees : windowed }

type metric =
  | Counter of windowed
  | Occupancy of occ
  | Histogram of (int, hist_window) Hashtbl.t

type t = { window : int; metrics : (string, metric) Hashtbl.t }

let create ?(window = default_window) () =
  if window <= 0 then invalid_arg "Metrics.create: window <= 0";
  { window; metrics = Hashtbl.create 16 }

let widx t ~at = if at <= 0 then 0 else at / t.window

let bump (w : windowed) idx by =
  match Hashtbl.find_opt w idx with
  | Some r -> r := !r + by
  | None -> Hashtbl.add w idx (ref by)

let kind_mismatch name = invalid_arg ("Metrics: kind mismatch for " ^ name)

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter w) -> w
  | Some _ -> kind_mismatch name
  | None ->
    let w = Hashtbl.create 16 in
    Hashtbl.add t.metrics name (Counter w);
    w

let occupancy t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Occupancy o) -> o
  | Some _ -> kind_mismatch name
  | None ->
    let o = { allocs = Hashtbl.create 16; frees = Hashtbl.create 16 } in
    Hashtbl.add t.metrics name (Occupancy o);
    o

let histogram t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Histogram h) -> h
  | Some _ -> kind_mismatch name
  | None ->
    let h = Hashtbl.create 16 in
    Hashtbl.add t.metrics name (Histogram h);
    h

let counter_add t name ~at by = bump (counter t name) (widx t ~at) by
let counter_incr t name ~at = counter_add t name ~at 1

let occupancy_alloc t name ~at =
  let o = occupancy t name in
  bump o.allocs (widx t ~at) 1

let occupancy_free t name ~at =
  let o = occupancy t name in
  bump o.frees (widx t ~at) 1

let histogram_observe t name ~at v =
  let h = histogram t name in
  let idx = widx t ~at in
  let hw =
    match Hashtbl.find_opt h idx with
    | Some hw -> hw
    | None ->
      let hw = { count = 0; sum = 0; buckets = Array.make (max_buckets + 1) 0 } in
      Hashtbl.add h idx hw;
      hw
  in
  hw.count <- hw.count + 1;
  hw.sum <- hw.sum + v;
  let b = min max_buckets (bucket_of v) in
  hw.buckets.(b) <- hw.buckets.(b) + 1

(* == The installed sink (domain-local, like Trace) ====================== *)

let current : t Sink.t = Sink.create ()

let[@inline] enabled () = Option.is_some (Sink.get current)

let start ?window () =
  let t = create ?window () in
  Sink.set current (Some t);
  t

let stop () = Sink.take current

let[@inline] with_current f = match Sink.get current with None -> () | Some t -> f t

(* Ambient hooks used from the hierarchy: no-ops with no sink installed. *)
let count name ~at = with_current (fun t -> counter_incr t name ~at)
let alloc name ~at = with_current (fun t -> occupancy_alloc t name ~at)
let free name ~at = with_current (fun t -> occupancy_free t name ~at)

(* == Deterministic views ================================================ *)

let sorted_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.metrics [] |> List.sort compare

let sorted_windows (w : windowed) =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) w [] |> List.sort compare

let counter_series t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter w) -> sorted_windows w
  | _ -> []

(* Per-window (allocs, frees, level-at-window-end); level integrates the
   deltas over all windows up to and including each listed one. *)
let occupancy_series t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Occupancy { allocs; frees }) ->
    let touched = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace touched k ()) allocs;
    Hashtbl.iter (fun k _ -> Hashtbl.replace touched k ()) frees;
    let windows =
      Hashtbl.fold (fun k () acc -> k :: acc) touched [] |> List.sort compare
    in
    let level = ref 0 in
    List.map
      (fun wi ->
        let a = match Hashtbl.find_opt allocs wi with Some r -> !r | None -> 0 in
        let f = match Hashtbl.find_opt frees wi with Some r -> !r | None -> 0 in
        level := !level + a - f;
        wi, a, f, !level)
      windows
  | _ -> []

let histogram_windows t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Histogram h) ->
    Hashtbl.fold (fun k hw acc -> (k, hw) :: acc) h []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  | _ -> []

let histogram_total_buckets t name =
  let acc = Array.make (max_buckets + 1) 0 in
  List.iter
    (fun (_, hw) -> Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) hw.buckets)
    (histogram_windows t name);
  acc

let counter_total t name = List.fold_left (fun a (_, v) -> a + v) 0 (counter_series t name)

let histogram_totals t name =
  List.fold_left
    (fun (c, s) (_, hw) -> c + hw.count, s + hw.sum)
    (0, 0) (histogram_windows t name)

(* Counter tracks for the Perfetto exporter: one point per touched window,
   stamped at the window's end cycle. *)
let counter_tracks t =
  List.concat_map
    (fun name ->
      match Hashtbl.find_opt t.metrics name with
      | Some (Counter _) ->
        [ name,
          List.map (fun (wi, v) -> (wi + 1) * t.window, v) (counter_series t name) ]
      | Some (Occupancy _) ->
        [ name ^ ".level",
          List.map (fun (wi, _, _, lvl) -> (wi + 1) * t.window, lvl)
            (occupancy_series t name) ]
      | _ -> [])
    (sorted_names t)

(* == Exporters ========================================================== *)

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* Metric names carry dots (component paths); Prometheus wants [a-zA-Z0-9_:]. *)
let prom_name name =
  String.map (fun c ->
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let to_prometheus t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let pn = prom_name name in
      match Hashtbl.find_opt t.metrics name with
      | Some (Counter _) ->
        buf_addf buf "# TYPE %s counter\n" pn;
        buf_addf buf "%s_total %d\n" pn (counter_total t name)
      | Some (Occupancy _) ->
        let series = occupancy_series t name in
        let final = match List.rev series with (_, _, _, l) :: _ -> l | [] -> 0 in
        let peak = List.fold_left (fun m (_, _, _, l) -> max m l) 0 series in
        buf_addf buf "# TYPE %s gauge\n" pn;
        buf_addf buf "%s %d\n" pn final;
        buf_addf buf "# TYPE %s_peak gauge\n" pn;
        buf_addf buf "%s_peak %d\n" pn peak
      | Some (Histogram _) ->
        let count, sum = histogram_totals t name in
        let buckets = histogram_total_buckets t name in
        buf_addf buf "# TYPE %s histogram\n" pn;
        let cum = ref 0 in
        Array.iteri
          (fun b c ->
            if c > 0 then begin
              cum := !cum + c;
              let le = if b = 0 then 0 else (1 lsl b) - 1 in
              buf_addf buf "%s_bucket{le=\"%d\"} %d\n" pn le !cum
            end)
          buckets;
        buf_addf buf "%s_bucket{le=\"+Inf\"} %d\n" pn count;
        buf_addf buf "%s_sum %d\n" pn sum;
        buf_addf buf "%s_count %d\n" pn count
      | None -> ())
    (sorted_names t);
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "metric,kind,window,field,value\n";
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.metrics name with
      | Some (Counter _) ->
        List.iter
          (fun (wi, v) -> buf_addf buf "%s,counter,%d,count,%d\n" name wi v)
          (counter_series t name)
      | Some (Occupancy _) ->
        List.iter
          (fun (wi, a, f, lvl) ->
            buf_addf buf "%s,occupancy,%d,allocs,%d\n" name wi a;
            buf_addf buf "%s,occupancy,%d,frees,%d\n" name wi f;
            buf_addf buf "%s,occupancy,%d,level,%d\n" name wi lvl)
          (occupancy_series t name)
      | Some (Histogram _) ->
        List.iter
          (fun (wi, hw) ->
            buf_addf buf "%s,histogram,%d,count,%d\n" name wi hw.count;
            buf_addf buf "%s,histogram,%d,sum,%d\n" name wi hw.sum)
          (histogram_windows t name)
      | None -> ())
    (sorted_names t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 4096 in
  buf_addf buf "{\n  \"window_cycles\": %d" t.window;
  let counters =
    List.filter
      (fun n -> match Hashtbl.find_opt t.metrics n with Some (Counter _) -> true | _ -> false)
      (sorted_names t)
  and occs =
    List.filter
      (fun n -> match Hashtbl.find_opt t.metrics n with Some (Occupancy _) -> true | _ -> false)
      (sorted_names t)
  and hists =
    List.filter
      (fun n -> match Hashtbl.find_opt t.metrics n with Some (Histogram _) -> true | _ -> false)
      (sorted_names t)
  in
  buf_addf buf ",\n  \"counters\": {";
  List.iteri
    (fun i name ->
      buf_addf buf "%s\n    \"%s\": [%s]" (if i = 0 then "" else ",") name
        (String.concat ", "
           (List.map (fun (wi, v) -> Printf.sprintf "[%d, %d]" wi v) (counter_series t name))))
    counters;
  buf_addf buf "%s},\n  \"occupancy\": {" (if counters = [] then "" else "\n  ");
  List.iteri
    (fun i name ->
      buf_addf buf "%s\n    \"%s\": [%s]" (if i = 0 then "" else ",") name
        (String.concat ", "
           (List.map
              (fun (wi, a, f, lvl) -> Printf.sprintf "[%d, %d, %d, %d]" wi a f lvl)
              (occupancy_series t name))))
    occs;
  buf_addf buf "%s},\n  \"histograms\": {" (if occs = [] then "" else "\n  ");
  List.iteri
    (fun i name ->
      let count, sum = histogram_totals t name in
      let buckets = histogram_total_buckets t name in
      let bucket_rows = ref [] in
      Array.iteri
        (fun b c -> if c > 0 then bucket_rows := Printf.sprintf "[%d, %d]" (bucket_lo b) c :: !bucket_rows)
        buckets;
      buf_addf buf "%s\n    \"%s\": {\"count\": %d, \"sum\": %d, \"buckets\": [%s], \"windows\": [%s]}"
        (if i = 0 then "" else ",") name count sum
        (String.concat ", " (List.rev !bucket_rows))
        (String.concat ", "
           (List.map
              (fun (wi, hw) -> Printf.sprintf "[%d, %d, %d]" wi hw.count hw.sum)
              (histogram_windows t name))))
    hists;
  buf_addf buf "%s}\n}\n" (if hists = [] then "" else "\n  ");
  Buffer.contents buf
