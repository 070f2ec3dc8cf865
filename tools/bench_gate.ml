(* Perf-regression gate over BENCH_results.json.

   Usage: bench_gate [--min-speedup X] [--max-serial-regress Y]
                     [--allow-missing] BASELINE FRESH [REPORT]

   Compares the committed baseline against a freshly generated file.  Every
   simulated quantity — per-workload cycles, checksums, latency summaries
   (through p99.9), per-stage cycle attribution, and the stats counters —
   is deterministic by construction, so the gate demands exact equality for
   them.  Host-dependent fields (wall_ms, wall_ms_serial, jobs) are ignored
   except for a very generous sanity bound on per-workload wall_ms (10x
   either way, floored at 1 ms, catches only pathological blowups, never
   scheduler noise).

   [--allow-missing] relaxes one direction: a gated key present in the
   fresh run but absent from the baseline is noted, not failed — the
   escape hatch for rolling the schema forward (new telemetry fields)
   against a baseline generated before they existed.  Keys the baseline
   has MUST still match exactly.

   Two optional hard perf gates (the execution-engine-v2 contract):

   - [--min-speedup X]: fail unless the fresh file's "speedup_vs_serial"
     (pinned-baseline serial wall over this run's serial wall, both summed
     over the workloads the two have in common, computed by the bench) is
     at least X.  When the fresh run records "pool_clamped"
     (an oversubscribed --jobs clamped to the host's cores), the floor is
     scaled by pool_width/jobs — the run never had the parallelism the
     floor assumed, and demanding it anyway would gate on host shape.
   - [--max-serial-regress Y]: fail if the fresh "wall_ms_workloads"
     exceeds the baseline file's by more than the fraction Y (0.20 = 20%).
   - [--min-bank-speedup X]: fail unless the fresh "fig9_32k_flush_l2b4"
     workload (the Fig. 9 32 KiB flush point on the 4-bank NUCA L2)
     records an 8-thread speedup of at least X (its "speedup_milli" stat,
     a simulated — hence deterministic — quantity).

   Two fleet robustness gates over the "fleet_kill1" workload (the
   kill-one-shard-at-steady-state row; both quantities are simulated and
   deterministic).  Either gate also fails outright if the row records any
   verification violations or leaked waiting-room slots:

   - [--max-fleet-shed F]: fail if the shed fraction ("shed_milli"/1000)
     exceeds F — losing one of four shards must not shed more than F of
     the offered load.
   - [--min-fleet-achieved X]: fail unless achieved throughput
     ("achieved_milli"/1000, served ops per 1000 cycles) is at least X.

   One skewed-workload gate over the serve rows (both quantities are
   simulated request latencies, class "serve", hence deterministic):

   - [--max-skew-p99-ratio R]: fail if the fresh
     "serve_hash_zipf99_r16_b8" row's serve p99 exceeds R times the fresh
     "serve_hash_r16_b8" (uniform-keys) serve p99 — Zipfian skew
     concentrates writes on hot lines, and this bounds how much tail the
     skew is allowed to cost.  Missing rows or latency classes fail.

   Writes a human-readable diff report to REPORT (default
   bench_gate_report.txt) and exits 1 when any gated field drifts, so CI
   can fail the build and upload the report as an artifact.

   The parser below handles exactly the JSON subset the bench emits:
   objects, arrays, strings with only simple escapes, numbers, booleans,
   null.  No external dependencies. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | c -> Buffer.add_char buf c);
        advance ();
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); Obj [])
      else
        let rec members acc =
          let k = (skip_ws (); parse_string ()) in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); List [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
    | '"' -> Str (parse_string ())
    | 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then (pos := !pos + 4; Bool true)
      else fail "bad literal"
    | 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then (pos := !pos + 5; Bool false)
      else fail "bad literal"
    | 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then (pos := !pos + 4; Null)
      else fail "bad literal"
    | c when c = '-' || (c >= '0' && c <= '9') -> Num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* -- accessors --------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None

let rec render = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
  | Str s -> Printf.sprintf "%S" s
  | List vs -> "[" ^ String.concat ", " (List.map render vs) ^ "]"
  | Obj kvs ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ ": " ^ render v) kvs) ^ "}"

(* -- comparison -------------------------------------------------------- *)

let drifts : string list ref = ref []

let notes : string list ref = ref []

let drift fmt = Printf.ksprintf (fun m -> drifts := m :: !drifts) fmt

let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt

(* Exact structural comparison; floats must match to the printed digit
   (both files come from the same printf formats, so real equality). *)
let rec equal_json a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> x = y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal_json xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && equal_json v1 v2)
         xs ys
  | _ -> false

let allow_missing = ref false

(* Subset comparison for --allow-missing: every key the baseline has must
   exist in the fresh run and match; keys only the fresh run has (new
   telemetry fields, at any nesting depth) are fine. *)
let rec subset_json b f =
  match b, f with
  | Obj xs, Obj ys ->
    List.for_all
      (fun (k, v) ->
        match List.assoc_opt k ys with Some w -> subset_json v w | None -> false)
      xs
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 subset_json xs ys
  | _ -> equal_json b f

let compare_exact ~where key base fresh =
  match base, fresh with
  | None, None -> ()
  | Some b, None -> drift "%s: %s missing from fresh run (baseline %s)" where key (render b)
  | None, Some f ->
    if !allow_missing then
      note "%s: %s new in fresh run (%s), absent from baseline (--allow-missing)" where
        key (render f)
    else drift "%s: %s appeared in fresh run (%s), absent from baseline" where key (render f)
  | Some b, Some f ->
    let same = if !allow_missing then subset_json b f else equal_json b f in
    if not same then
      drift "%s: %s drifted: baseline %s, fresh %s" where key (render b) (render f)

let compare_wall ~where base fresh =
  match base, fresh with
  | Some b, Some f when b > 0. ->
    let lo = Float.max 1. (b /. 10.) and hi = Float.max 10. (b *. 10.) in
    if f > hi || (f < lo && b >= 10.) then
      note "%s: wall_ms %.2f vs baseline %.2f (outside 10x band; informational)" where f b
  | _ -> ()

let compare_workload name base fresh =
  let where = "workload " ^ name in
  List.iter
    (fun key -> compare_exact ~where key (member key base) (member key fresh))
    [ "cycles"; "checksums"; "latency"; "attribution"; "stats" ];
  compare_wall ~where
    (Option.bind (member "wall_ms" base) to_num)
    (Option.bind (member "wall_ms" fresh) to_num)

let workloads j =
  match member "workloads" j with
  | Some (List ws) ->
    List.filter_map
      (fun w -> Option.map (fun n -> n, w) (Option.bind (member "name" w) to_str))
      ws
  | _ -> []

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let usage () =
  prerr_endline
    "usage: bench_gate [--min-speedup X] [--max-serial-regress Y] \
     [--min-bank-speedup X] [--max-fleet-shed F] [--min-fleet-achieved X] \
     [--max-skew-p99-ratio R] [--allow-missing] BASELINE FRESH [REPORT]";
  exit 2

let () =
  let min_speedup = ref None and max_serial_regress = ref None in
  let min_bank_speedup = ref None in
  let max_fleet_shed = ref None and min_fleet_achieved = ref None in
  let max_skew_p99_ratio = ref None in
  let positional = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--min-speedup" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> min_speedup := Some f; parse_args rest
      | None -> usage ())
    | "--max-serial-regress" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> max_serial_regress := Some f; parse_args rest
      | None -> usage ())
    | "--min-bank-speedup" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> min_bank_speedup := Some f; parse_args rest
      | None -> usage ())
    | "--max-fleet-shed" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> max_fleet_shed := Some f; parse_args rest
      | None -> usage ())
    | "--min-fleet-achieved" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> min_fleet_achieved := Some f; parse_args rest
      | None -> usage ())
    | "--max-skew-p99-ratio" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f -> max_skew_p99_ratio := Some f; parse_args rest
      | None -> usage ())
    | "--allow-missing" :: rest ->
      allow_missing := true;
      parse_args rest
    | a :: rest ->
      if String.length a > 1 && a.[0] = '-' then usage ();
      positional := a :: !positional;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path, report_path =
    match List.rev !positional with
    | [ b; f ] -> b, f, "bench_gate_report.txt"
    | [ b; f; r ] -> b, f, r
    | _ -> usage ()
  in
  let load path =
    try parse (read_file path) with
    | Sys_error e ->
      Printf.eprintf "bench_gate: %s\n" e;
      exit 2
    | Parse_error e ->
      Printf.eprintf "bench_gate: %s: %s\n" path e;
      exit 2
  in
  let base = load baseline_path and fresh = load fresh_path in
  let bws = workloads base and fws = workloads fresh in
  List.iter
    (fun (name, bw) ->
      match List.assoc_opt name fws with
      | Some fw -> compare_workload name bw fw
      | None -> drift "workload %s present in baseline, missing from fresh run" name)
    bws;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name bws) then
        drift "workload %s appeared in fresh run, absent from baseline" name)
    fws;
  (match !min_speedup with
   | None -> ()
   | Some fl -> (
     match Option.bind (member "speedup_vs_serial" fresh) to_num with
     | None -> drift "speedup gate: fresh run has no speedup_vs_serial field"
     | Some s ->
       (* Compare against the width the run actually had: an oversubscribed
          --jobs clamped to the host's cores cannot reach a floor computed
          for the requested width. *)
       let fl =
         match
           ( member "pool_clamped" fresh,
             Option.bind (member "pool_width" fresh) to_num,
             Option.bind (member "jobs" fresh) to_num )
         with
         | Some (Bool true), Some w, Some j when j > 0. && w < j ->
           let fl' = Float.max 1. (fl *. w /. j) in
           note
             "speedup gate: pool clamped to %.0f of %.0f requested domain(s); floor \
              scaled %.2f -> %.2f"
             w j fl fl';
           fl'
         | _ -> fl
       in
       if s < fl then
         drift "speedup gate: speedup_vs_serial %.2f below required %.2f" s fl
       else note "speedup gate: speedup_vs_serial %.2f >= %.2f" s fl));
  (match !min_bank_speedup with
   | None -> ()
   | Some fl -> (
     let w_name = "fig9_32k_flush_l2b4" in
     match List.assoc_opt w_name fws with
     | None -> drift "bank-speedup gate: workload %s missing from fresh run" w_name
     | Some w -> (
       match
         Option.bind (member "stats" w) (member "speedup_milli")
         |> Fun.flip Option.bind to_num
       with
       | None -> drift "bank-speedup gate: %s has no speedup_milli stat" w_name
       | Some m ->
         let s = m /. 1000. in
         if s < fl then
           drift "bank-speedup gate: banked fig9 8-thread speedup %.2f below required %.2f"
             s fl
         else note "bank-speedup gate: banked fig9 8-thread speedup %.2f >= %.2f" s fl)));
  (if !max_fleet_shed <> None || !min_fleet_achieved <> None then begin
     let w_name = "fleet_kill1" in
     match List.assoc_opt w_name fws with
     | None -> drift "fleet gate: workload %s missing from fresh run" w_name
     | Some w ->
       let stat key =
         Option.bind (member "stats" w) (member key) |> Fun.flip Option.bind to_num
       in
       (match stat "violations" with
        | Some v when v > 0. ->
          drift "fleet gate: %s records %.0f verification violation(s)" w_name v
        | Some _ -> ()
        | None -> drift "fleet gate: %s has no violations stat" w_name);
       (match stat "leaked" with
        | Some v when v > 0. ->
          drift "fleet gate: %s leaked %.0f waiting-room slot(s)" w_name v
        | _ -> ());
       (match !max_fleet_shed with
        | None -> ()
        | Some fl -> (
          match stat "shed_milli" with
          | None -> drift "fleet gate: %s has no shed_milli stat" w_name
          | Some m ->
            let f = m /. 1000. in
            if f > fl then
              drift "fleet-shed gate: shed fraction %.3f above allowed %.3f" f fl
            else note "fleet-shed gate: shed fraction %.3f <= %.3f" f fl));
       match !min_fleet_achieved with
       | None -> ()
       | Some fl -> (
         match stat "achieved_milli" with
         | None -> drift "fleet gate: %s has no achieved_milli stat" w_name
         | Some m ->
           let a = m /. 1000. in
           if a < fl then
             drift
               "fleet-achieved gate: achieved %.2f ops/kcycle below required %.2f" a fl
           else note "fleet-achieved gate: achieved %.2f ops/kcycle >= %.2f" a fl)
   end);
  (match !max_skew_p99_ratio with
   | None -> ()
   | Some fl ->
     let serve_p99 w_name =
       match List.assoc_opt w_name fws with
       | None ->
         drift "skew gate: workload %s missing from fresh run" w_name;
         None
       | Some w -> (
         match
           Option.bind (member "latency" w) (member "serve")
           |> Fun.flip Option.bind (member "p99")
           |> Fun.flip Option.bind to_num
         with
         | None ->
           drift "skew gate: %s has no serve p99 latency" w_name;
           None
         | some -> some)
     in
     (match serve_p99 "serve_hash_r16_b8", serve_p99 "serve_hash_zipf99_r16_b8" with
      | Some uniform, Some skewed when uniform > 0. ->
        let ratio = skewed /. uniform in
        if ratio > fl then
          drift
            "skew gate: zipf:0.99 serve p99 %.1f is %.2fx the uniform p99 %.1f \
             (allowed %.2fx)"
            skewed ratio uniform fl
        else
          note "skew gate: zipf:0.99 serve p99 %.1f / uniform %.1f = %.2fx <= %.2fx"
            skewed uniform ratio fl
      | Some uniform, Some _ ->
        drift "skew gate: uniform serve p99 %.1f is not positive" uniform
      | _ -> ()));
  (match !max_serial_regress with
   | None -> ()
   | Some frac -> (
     match
       ( Option.bind (member "wall_ms_workloads" base) to_num,
         Option.bind (member "wall_ms_workloads" fresh) to_num )
     with
     | Some b, Some f when b > 0. ->
       let limit = b *. (1. +. frac) in
       if f > limit then
         drift
           "serial-regress gate: wall_ms_workloads %.2f exceeds baseline %.2f by more             than %.0f%% (limit %.2f)"
           f b (frac *. 100.) limit
       else note "serial-regress gate: wall_ms_workloads %.2f within %.0f%% of %.2f" f (frac *. 100.) b
     | _ -> drift "serial-regress gate: wall_ms_workloads missing from baseline or fresh"));
  let drifts = List.rev !drifts and notes = List.rev !notes in
  let oc = open_out report_path in
  Printf.fprintf oc "bench_gate: %s vs %s\n" baseline_path fresh_path;
  Printf.fprintf oc "workloads: %d baseline, %d fresh\n" (List.length bws)
    (List.length fws);
  if drifts = [] then Printf.fprintf oc "PASS: all gated fields identical\n"
  else begin
    Printf.fprintf oc "FAIL: %d drift(s)\n" (List.length drifts);
    List.iter (fun d -> Printf.fprintf oc "  %s\n" d) drifts
  end;
  List.iter (fun w -> Printf.fprintf oc "  note: %s\n" w) notes;
  close_out oc;
  print_string (read_file report_path);
  if drifts <> [] then exit 1
