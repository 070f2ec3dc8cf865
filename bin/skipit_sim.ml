(* Command-line harness: regenerate the paper's evaluation figures and
   ablations, run trace programs, and drive the crash audit, the serving
   engine and the sharded fleet. *)

module Figures = Skipit_workload.Figures
module Pool = Skipit_par.Pool
module S = Skipit_core.System
module C = Skipit_core.Config
module Trace = Skipit_obs.Trace
module Latency = Skipit_obs.Latency
module Perfetto = Skipit_obs.Perfetto
module Ops = Skipit_pds.Set_ops
module Pctx = Skipit_persist.Pctx
module Ds_bench = Skipit_workload.Ds_bench
module Arrival = Skipit_serve.Arrival
module Workload = Skipit_serve.Workload
module Engine = Skipit_serve.Engine
module Report = Skipit_serve.Report
module Fleet = Skipit_fleet.Fleet
module Metrics = Skipit_obs.Metrics
open Cmdliner

let with_ppf f =
  let ppf = Format.std_formatter in
  Format.pp_open_vbox ppf 0;
  f ppf;
  Format.pp_close_box ppf ();
  Format.pp_print_newline ppf ()

(* ------------------------------------------------------------------ *)
(* Parallel experiment engine plumbing.                               *)

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Domains for independent simulation jobs, the calling one \
               included (0 = auto: one per core, capped at 8; larger values \
               are capped at the core count).  Results are reduced in \
               submission order, so the output is byte-identical at any \
               width.")

(* Resolve a --jobs value and hand [f] a pool (or [None] for width 1 —
   everything then runs inline on the calling domain).  The width never
   exceeds the host's cores: every minor GC is a stop-the-world rendezvous
   across all running domains, so more domains than cores only run slower,
   and the output is the same at any width.  Call this before printing
   anything: the helpers' spawn re-buffers [Format.std_formatter]. *)
let with_jobs jobs f =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  let jobs = if jobs <= 0 then min 8 cores else min jobs cores in
  if jobs <= 1 then f None else Pool.with_pool ~jobs (fun pool -> f (Some pool))

(* A name-based argument converter: [of_name] parses, [to_name] prints. *)
let conv_of ~what ~of_name ~to_name =
  Arg.conv
    ( (fun s ->
        match of_name s with
        | Some v -> Ok v
        | None -> Error (`Msg (Printf.sprintf "unknown %s %S" what s))),
      fun ppf v -> Format.pp_print_string ppf (to_name v) )

(* An integer argument that must be at least 1. *)
let pos_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))),
      Format.pp_print_int )

(* A count that must be a power of two, at least 1. *)
let pow2_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 && n land (n - 1) = 0 -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "expected a power of two >= 1, got %S" s))),
      Format.pp_print_int )

(* Report a bad command line and exit 2. *)
let fail cmd msg =
  prerr_endline (cmd ^ ": " ^ msg);
  exit 2

(* ------------------------------------------------------------------ *)
(* Hierarchy shape shared by the simulation commands.                 *)

let l2_banks_info =
  Arg.info [ "l2-banks" ] ~docv:"N"
    ~doc:"Address-interleaved NUCA L2 banks, each with its own MSHRs, \
          directory and request queue (power of two; 1 = the paper's \
          monolithic L2)."

let l2_banks_arg = Arg.(value & opt pow2_int 1 l2_banks_info)

let banked_bus_arg =
  Arg.(value & flag & info [ "banked-bus" ]
       ~doc:"Wire the clients to the L2 over one bus per bank \
             (address-interleaved) instead of a full crossbar.")

let skip_it_arg = Arg.(value & flag & info [ "skip-it" ] ~doc:"Enable Skip It.")

let shared_bus_arg =
  Arg.(value & flag & info [ "shared-bus" ]
       ~doc:"Wire all L1 ports onto one shared bus instead of a crossbar.")

let topology_of ~shared_bus ~banked_bus =
  if banked_bus then `Banked_bus else if shared_bus then `Shared_bus else `Crossbar

(* ------------------------------------------------------------------ *)
(* Event tracing for the run command.                                 *)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record a cycle-stamped event trace of the run and write it as \
               Chrome trace-event JSON (open in ui.perfetto.dev).")

let trace_filter_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-filter" ] ~docv:"COMPONENTS"
         ~doc:"Comma-separated component-track prefixes to record, e.g. \
               'l1,fu.0,port'.  Default: every component.")

let trace_capacity_arg =
  Arg.(value & opt pos_int (1 lsl 20)
       & info [ "trace-capacity" ] ~docv:"N"
         ~doc:"Ring-buffer capacity in events for --trace-out; the oldest \
               events are dropped beyond it.")

let parse_filter = function
  | None -> None
  | Some s -> (
    let parts =
      String.split_on_char ',' s
      |> List.filter_map (fun p ->
           match String.trim p with "" -> None | p -> Some p)
    in
    match parts with [] -> None | l -> Some l)

(* Run [f]; with [out], trace it, then export the Perfetto JSON and print
   the latency table.  The ring-buffer accounting prints as a stats-style
   group so overflow is visible in the output, not just the export
   warning. *)
let maybe_traced ~capacity ~out ~filter f =
  match out with
  | None -> f ()
  | Some out ->
    let tr = Trace.start ~capacity ?filter:(parse_filter filter) () in
    Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) f;
    Perfetto.write_file out tr;
    with_ppf (fun ppf -> Latency.pp ppf (Latency.of_trace tr));
    Printf.printf "\n[trace]\n  %-26s %d\n  %-26s %d\n  %-26s %d\n" "events"
      (Trace.length tr) "capacity" (Trace.capacity tr) "dropped" (Trace.dropped tr);
    if Trace.dropped tr > 0 then
      Printf.printf
        "trace: %d event(s) dropped after the ring filled; narrow --trace-filter or \
         raise --trace-capacity\n"
        (Trace.dropped tr);
    Printf.printf "trace: wrote %s (%d events, %d tracks)\n" out (Trace.length tr)
      (List.length (Perfetto.tracks tr))

(* Order names with digit runs compared numerically, so the per-bank groups
   read "l2.bank.2" before "l2.bank.10". *)
let natural_compare a b =
  let la = String.length a and lb = String.length b in
  let is_digit c = c >= '0' && c <= '9' in
  let digits s i l =
    let j = ref i in
    while !j < l && is_digit s.[!j] do incr j done;
    !j
  in
  let rec go i j =
    if i >= la || j >= lb then compare (la - i) (lb - j)
    else if is_digit a.[i] && is_digit b.[j] then begin
      let i' = digits a i la and j' = digits b j lb in
      let na = int_of_string (String.sub a i (i' - i)) in
      let nb = int_of_string (String.sub b j (j' - j)) in
      if na <> nb then compare na nb else go i' j'
    end
    else if a.[i] <> b.[j] then Char.compare a.[i] b.[j]
    else go (i + 1) (j + 1)
  in
  go 0 0

(* Print a stats report grouped by component ("l1.0.load_hits" sits in the
   "l1.0" block as "load_hits"; "l2.bank.3.hits" under "[l2.bank.3]").
   Natural-ordering the names keeps each component's members contiguous
   and the banks in index order. *)
let print_grouped_stats report =
  let report = List.sort (fun (a, _) (b, _) -> natural_compare a b) report in
  let split name =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1)
    | None -> "", name
  in
  let last = ref None in
  List.iter
    (fun (k, v) ->
      let g, leaf = split k in
      if !last <> Some g then begin
        if !last <> None then print_newline ();
        Printf.printf "[%s]\n" (if g = "" then "system" else g);
        last := Some g
      end;
      Printf.printf "  %-26s %d\n" leaf v)
    report

let figure_cmd =
  let figure =
    let doc =
      Printf.sprintf "Figure to regenerate: %s." (String.concat ", " Figures.names)
    in
    Arg.(required & pos 0 (some (enum (List.map (fun n -> n, n) Figures.names))) None
         & info [] ~docv:"FIGURE" ~doc)
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer repetitions and sweep points.")
  in
  let cores =
    Arg.(value & opt (some pos_int) None
         & info [ "cores" ] ~docv:"N"
           ~doc:"Scale the platform to N cores; the thread sweeps then extend \
                 in powers of two up to N (default: the paper's platform).")
  in
  let run name quick jobs cores l2_banks banked_bus =
    (* Only override the figure's own platform when the shape flags are
       used, so default invocations stay byte-identical. *)
    let params =
      if cores = None && l2_banks = 1 && not banked_bus then None
      else
        Some
          (C.platform ?cores ~l2_banks
             ~topology:(topology_of ~shared_bus:false ~banked_bus)
             ())
    in
    match Figures.by_name name with
    | Some f ->
      with_jobs jobs (fun pool -> with_ppf (fun ppf -> f ~quick ?pool ?params ppf))
    | None -> prerr_endline ("unknown figure " ^ name)
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's evaluation figures")
    Term.(const run $ figure $ quick $ jobs_arg $ cores $ l2_banks_arg $ banked_bus_arg)

(* Load a trace program and settle the core count. *)
let load_program file cores =
  match Skipit_workload.Trace_program.load_file file with
  | Error e ->
    prerr_endline ("trace error: " ^ e);
    exit 1
  | Ok program ->
    let needed = Skipit_workload.Trace_program.max_core program + 1 in
    let cores = match cores with Some n -> n | None -> needed in
    if cores < needed then begin
      Printf.eprintf "trace error: program uses core %d but only %d core%s simulated\n"
        (needed - 1) cores (if cores = 1 then " is" else "s are");
      exit 1
    end;
    program, cores

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace program file.")

let cores_arg =
  Arg.(value & opt (some pos_int) None
       & info [ "cores" ] ~doc:"Simulated cores (default: enough for the trace).")

let run_cmd =
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Dump all counters after the run.") in
  let run file cores skip_it stats shared_bus l2_banks banked_bus trace_out trace_filter
      capacity =
    let program, cores = load_program file cores in
    maybe_traced ~capacity ~out:trace_out ~filter:trace_filter (fun () ->
      let topology = topology_of ~shared_bus ~banked_bus in
      let sys = S.create (C.platform ~cores ~skip_it ~topology ~l2_banks ()) in
      S.emit_trace_meta sys;
      let cycles, checksums = Skipit_workload.Trace_program.run sys program in
      Printf.printf "elapsed: %d cycles\n" cycles;
      Array.iteri (fun i c -> Printf.printf "core %d load-checksum: %#x\n" i c) checksums;
      if stats then print_grouped_stats (S.stats_report sys))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a text trace program (see examples/traces/); with --stats dump \
             every counter, with --trace-out write a Perfetto timeline and \
             print per-class latency percentiles")
    Term.(const run $ program_arg $ cores_arg $ skip_it_arg $ stats $ shared_bus_arg
          $ l2_banks_arg $ banked_bus_arg $ trace_out_arg $ trace_filter_arg
          $ trace_capacity_arg)

let ablate_cmd =
  let run jobs =
    with_jobs jobs (fun pool ->
      with_ppf (fun ppf -> Skipit_workload.Ablation.run_all ?pool ppf))
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Run the design-choice ablations (FSHR count, queue depth, skip decomposition, array width, coalescing)")
    Term.(const run $ jobs_arg)

let audit_cmd =
  let module Campaign = Skipit_audit.Campaign in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign RNG seed.") in
  let ops =
    Arg.(value & opt pos_int 40 & info [ "ops" ] ~doc:"Operations per trial schedule.")
  in
  let budget =
    Arg.(value & opt pos_int 20
         & info [ "budget" ] ~docv:"N"
           ~doc:"Crash boundaries tested per spec (exhaustive when the run \
                 has at most N persist events, else first + last + sampled; \
                 N = 1 tests the first only).")
  in
  let csv_list ~name ~of_name arg_name doc =
    Arg.(value
         & opt (some (list ~sep:',' (conv_of ~what:arg_name ~of_name ~to_name:name))) None
         & info [ arg_name ] ~docv:"LIST" ~doc)
  in
  let structures =
    csv_list ~name:Campaign.structure_name ~of_name:Campaign.structure_of_name "structures"
      "Comma-separated structures to test (default: all five)."
  in
  let modes =
    csv_list ~name:Pctx.mode_name ~of_name:Pctx.mode_of_name "modes"
      "Comma-separated persistence modes (default: all three)."
  in
  let strategies =
    csv_list ~name:Ds_bench.spec_name ~of_name:Ds_bench.spec_of_name "strategies"
      "Comma-separated persist strategies, named as for serve and fleet \
       --strategy: plain, skip-it, flit-adjacent, flit-hash[/N], \
       link-and-persist (not on bst).  baseline never persists and is \
       rejected (default: plain,skip-it)."
  in
  let fault =
    Arg.(value
         & opt (conv_of ~what:"fault" ~of_name:Campaign.fault_of_name ~to_name:Campaign.fault_name)
             Campaign.No_fault
         & info [ "fault" ] ~docv:"FAULT"
           ~doc:"Seeded fault for validating the campaign itself: a test-only \
                 strategy wrapper eliding required writebacks \
                 (none, drop-nth-persist:N, drop-all-persists).")
  in
  let repro =
    Arg.(value & opt (some file) None
         & info [ "repro" ] ~docv:"FILE" ~doc:"Replay a reproducer file instead of a campaign.")
  in
  let repro_out =
    Arg.(value & opt string "audit-repro.txt"
         & info [ "repro-out" ] ~docv:"FILE"
           ~doc:"Where to write the shrunk reproducer when a spec fails.")
  in
  (* A reproducer carries its platform: it replays on the file's bank
     count, which an explicit --l2-banks must not contradict. *)
  let l2_banks = Arg.(value & opt (some ~none:"1" pow2_int) None l2_banks_info) in
  let replay ~l2_banks file =
    match Campaign.read_reproducer file with
    | Error e ->
      prerr_endline ("reproducer error: " ^ e);
      exit 1
    | Ok f ->
      let banks = f.Campaign.spec.Campaign.l2_banks in
      Option.iter
        (fun n ->
          if n <> banks then
            fail "audit"
              (Printf.sprintf
                 "--l2-banks %d contradicts the reproducer's l2_banks=%d; omit it to replay \
                  on the file's platform"
                 n banks))
        l2_banks;
      let t = Campaign.run_trial f.Campaign.spec ~crash_at:f.Campaign.crash_at in
      Printf.printf "replay %s crash_at=%s: %d persists, %d op(s) completed\n"
        (Campaign.spec_name f.Campaign.spec)
        (match f.Campaign.crash_at with Some b -> string_of_int b | None -> "-")
        t.Campaign.persists t.Campaign.completed;
      if t.Campaign.violations = [] then print_endline "no violations (does not reproduce)"
      else begin
        List.iter (fun v -> Printf.printf "violation: %s\n" v) t.Campaign.violations;
        exit 1
      end
  in
  let run seed ops budget structures modes strategies fault repro repro_out l2_banks jobs =
    match repro with
    | Some file -> replay ~l2_banks file
    | None ->
      let specs =
        match Campaign.grid ?structures ?modes ?strategies ~seed ~n_ops:ops ~fault () with
        | Ok specs ->
          let l2_banks = Option.value l2_banks ~default:1 in
          List.map (fun s -> { s with Campaign.l2_banks }) specs
        | Error e -> fail "audit" e
      in
      Printf.printf "audit campaign: %d spec(s), seed %d, %d op(s), boundary budget %d\n%!"
        (List.length specs) seed ops budget;
      let reports =
        with_jobs jobs (fun pool -> Campaign.run_campaign ?pool ~budget specs)
      in
      let failed = ref 0 in
      List.iter
        (fun r ->
          with_ppf (fun ppf -> Campaign.pp_report ppf r);
          match r.Campaign.failure with
          | None -> ()
          | Some f ->
            incr failed;
            if !failed = 1 then begin
              print_endline "shrinking first failure...";
              let s = Campaign.shrink f in
              Campaign.write_reproducer repro_out s;
              Printf.printf
                "minimal reproducer: %s crash_at=%s (%d op(s)) -> wrote %s\n"
                (Campaign.spec_name s.Campaign.spec)
                (match s.Campaign.crash_at with Some b -> string_of_int b | None -> "-")
                s.Campaign.spec.Campaign.n_ops repro_out
            end)
        reports;
      if !failed = 0 then
        Printf.printf "audit campaign: all %d spec(s) clean\n" (List.length reports)
      else begin
        Printf.printf "audit campaign: %d/%d spec(s) FAILED\n" !failed (List.length reports);
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Crash-injection campaign: every structure x mode x strategy, \
             crashed at persist boundaries, repaired and checked for durable \
             linearizability plus hierarchy invariants")
    Term.(const run $ seed $ ops $ budget $ structures $ modes $ strategies $ fault
          $ repro $ repro_out $ l2_banks $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* Serving front end: the flags serve and fleet share.                *)

(* The shared flags, resolved: --mix folded into the update percentage and
   --phases wrapped around the arrival process.  [requests] and [rates] stay
   optional because serve and fleet default them differently. *)
type serving = {
  kind : Ops.kind;
  mode : Pctx.mode;
  spec : Ds_bench.strategy_spec;
  process : Arrival.process;
  workload : Workload.t;
  update_pct : int;
  clients : int;
  requests : int option;
  batch : int;
  depth : int;
  seed : int;
  rates : float list option;
  csv : bool;
}

(* Serve and fleet share every default except the client count and the
   waiting-room depth. *)
let serving_term ~cmd ~clients ~depth =
  let d = Engine.default in
  let structure =
    Arg.(value
         & opt (conv_of ~what:"structure" ~of_name:Ops.kind_of_name ~to_name:Ops.kind_name)
             d.Engine.kind
         & info [ "structure" ] ~docv:"S"
           ~doc:"Structure to serve: linked-list, hash-table, bst, skiplist.")
  in
  let mode =
    Arg.(value
         & opt (conv_of ~what:"mode" ~of_name:Pctx.mode_of_name ~to_name:Pctx.mode_name)
             d.Engine.mode
         & info [ "mode" ] ~docv:"M" ~doc:"Persistence mode: automatic, nvtraverse, manual.")
  in
  let strategy =
    Arg.(value
         & opt (conv_of ~what:"strategy" ~of_name:Ds_bench.spec_of_name
                  ~to_name:Ds_bench.spec_name)
             d.Engine.spec
         & info [ "strategy" ] ~docv:"STRAT"
           ~doc:"Persist strategy: plain, flit-adjacent, flit-hash[/N], \
                 link-and-persist, skip-it, baseline.")
  in
  let arrival =
    Arg.(value
         & opt (conv_of ~what:"arrival process" ~of_name:Arrival.process_of_name
                  ~to_name:Arrival.process_name)
             d.Engine.process
         & info [ "arrival" ] ~docv:"PROC"
           ~doc:"Arrival process: poisson, bursty[:ON/OFF] (on/off phase \
                 lengths in cycles), or degraded:S-E[,S-E]:BASE (fault windows \
                 over BASE).")
  in
  let keys =
    Arg.(value
         & opt (conv_of ~what:"key distribution" ~of_name:Workload.keys_of_name
                  ~to_name:Workload.keys_name)
             Workload.Uniform
         & info [ "keys" ] ~docv:"DIST"
           ~doc:"Key popularity: uniform, zipf (theta 0.99), or zipf:THETA.")
  in
  let churn =
    Arg.(value & opt (some int) None
         & info [ "churn" ] ~docv:"CYCLES"
           ~doc:"Hot-set rotation period in cycles (requires zipf keys): \
                 every period the rank-to-key mapping rotates by a seeded \
                 offset.")
  in
  let mix =
    Arg.(value & opt (some string) None
         & info [ "mix" ] ~docv:"R:W"
           ~doc:"Read/write mix, e.g. 80:20 (overrides --update).")
  in
  let phases =
    Arg.(value & opt (some string) None
         & info [ "phases" ] ~docv:"LEN:MULT,..."
           ~doc:"Diurnal rate phases wrapped around the arrival process: \
                 comma-separated LEN:MULT segments (length in cycles, rate \
                 multiplier as a decimal; 0 = dead trough), e.g. \
                 4000:0.25,4000:2.5.")
  in
  let update =
    Arg.(value & opt int d.Engine.update_pct
         & info [ "update" ] ~docv:"PCT" ~doc:"Update percentage (insert/delete 50/50).")
  in
  let clients =
    Arg.(value & opt int clients
         & info [ "clients" ] ~docv:"N" ~doc:"Independent open-loop sessions.")
  in
  let requests =
    Arg.(value & opt (some int) None
         & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per sweep point (default 2000; 600 with serve --quick).")
  in
  let batch =
    Arg.(value & opt int d.Engine.batch
         & info [ "batch" ] ~docv:"N"
           ~doc:"Group-commit epoch size; 1 = per-operation persists.")
  in
  let depth =
    Arg.(value & opt int depth
         & info [ "depth" ] ~docv:"N"
           ~doc:"Waiting-room capacity; arrivals that find it full are shed.")
  in
  let seed = Arg.(value & opt int d.Engine.seed & info [ "seed" ] ~doc:"Workload seed.") in
  let rates =
    Arg.(value
         & opt (some (list ~sep:',' float)) None
         & info [ "rate" ] ~docv:"R1,R2,..."
           ~doc:"Offered loads to sweep, in operations per 1000 cycles.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  let resolve kind mode spec arrival keys churn mix phases update clients requests batch
      depth seed rates csv =
    let fail = fail cmd in
    let update_pct =
      match mix with
      | None -> update
      | Some m -> (
        match Workload.mix_of_spec m with
        | Some pct -> pct
        | None -> fail ("bad --mix " ^ m ^ " (want R:W, e.g. 80:20)"))
    in
    let process =
      match phases with
      | None -> arrival
      | Some p -> (
        match Arrival.phases_of_spec p with
        | None -> fail ("bad --phases " ^ p ^ " (want LEN:MULT[,LEN:MULT])")
        | Some ps -> (
          match Arrival.with_phases arrival ps with
          | Some p -> p
          | None -> fail "--phases cannot wrap an already-phased process"))
    in
    { kind; mode; spec; process; workload = { Workload.keys; churn }; update_pct; clients;
      requests; batch; depth; seed; rates; csv }
  in
  Term.(const resolve $ structure $ mode $ strategy $ arrival $ keys $ churn $ mix $ phases
        $ update $ clients $ requests $ batch $ depth $ seed $ rates $ csv)

(* Write [content] to [dest] ('-' = stdout), reporting a file write. *)
let write_out ~what dest content =
  match dest with
  | "-" -> print_string content
  | file ->
    let oc = open_out file in
    output_string oc content;
    close_out oc;
    Printf.printf "telemetry: wrote %s (%s)\n" file what

(* One telemetry run on the console: the CO-corrected distribution next to
   what a naive (dequeue-stamped) recorder would have reported, then where
   the cycles went. *)
let print_attribution (p : Engine.point) =
  let pp_summary name = function
    | Some (s : Latency.summary) ->
      Printf.printf "%-22s p50 %.0f  p95 %.0f  p99 %.0f  p99.9 %.0f  max %.0f\n" name
        s.Latency.p50 s.Latency.p95 s.Latency.p99 s.Latency.p999 s.Latency.max
    | None -> ()
  in
  Printf.printf "rate %.1f: served %d, shed %d (of %d)\n" p.Engine.offered p.Engine.served
    p.Engine.shed p.Engine.n;
  pp_summary "latency (intended):" p.Engine.latency;
  pp_summary "latency (dequeue):" p.Engine.dequeue_latency;
  (match p.Engine.gap with
   | Some g ->
     Printf.printf "%-22s p50 %.0f  p99 %.0f  p99.9 %.0f\n" "co gap (cycles):"
       g.Latency.gap_p50 g.Latency.gap_p99 g.Latency.gap_p999
   | None -> ());
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 p.Engine.attribution in
  if total > 0 then begin
    Printf.printf "attribution over %d request(s), %d cycle(s):\n" p.Engine.attr_requests
      total;
    List.iter
      (fun (name, c) ->
        if c > 0 then
          Printf.printf "  %-14s %10d  %5.1f%%\n" name c
            (100. *. float_of_int c /. float_of_int total))
      p.Engine.attribution;
    Printf.printf "conservation: %s (%d cycle(s) trimmed)\n"
      (if p.Engine.attr_conserved then "ok" else "VIOLATED")
      p.Engine.attr_trimmed
  end

let serve_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Fewer sweep points and requests.") in
  let cores =
    Arg.(value & opt int Engine.default.Engine.cores
         & info [ "cores" ] ~docv:"N" ~doc:"Serving cores, each with its own batcher.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of a table.") in
  let telemetry =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Record per-stage cycle attribution and windowed metrics \
                 during every run, print each run's attribution, and write \
                 the telemetry JSON to FILE ('-' for stdout).  Simulated \
                 cycles are bit-identical with this on or off, and the \
                 document is byte-identical at any --jobs width.")
  in
  let window =
    Arg.(value & opt int Engine.default.Engine.window
         & info [ "window" ] ~docv:"CYCLES"
           ~doc:"Metrics window width in simulated cycles.")
  in
  let export name ~doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc) in
  let prom =
    export "prom"
      ~doc:"Write the metrics registry as Prometheus-style text ('-' for stdout); \
            needs a single --rate."
  in
  let metrics_csv =
    export "metrics-csv"
      ~doc:"Write the metrics registry as CSV ('-' for stdout); needs a single --rate."
  in
  let perfetto =
    export "perfetto"
      ~doc:"Also trace the run and write Chrome trace-event JSON with the metrics \
            as counter tracks (open in ui.perfetto.dev); needs a single --rate."
  in
  let run (c : serving) quick cores json telemetry window prom metrics_csv perfetto l2_banks
      jobs =
    let exports = prom <> None || metrics_csv <> None || perfetto <> None in
    let cfg =
      {
        Engine.default with
        Engine.kind = c.kind;
        mode = c.mode;
        spec = c.spec;
        process = c.process;
        workload = c.workload;
        clients = c.clients;
        requests = Option.value c.requests ~default:(if quick then 600 else 2000);
        batch = c.batch;
        depth = c.depth;
        cores;
        update_pct = c.update_pct;
        seed = c.seed;
        telemetry = telemetry <> None || exports;
        window;
      }
    in
    let fail = fail "serve" in
    (match Engine.validate cfg with Ok () -> () | Error e -> fail e);
    let rates = match c.rates with Some rs -> rs | None -> Report.default_rates ~quick in
    let params =
      if l2_banks = 1 then None else Some (C.Params.with_l2_banks C.default l2_banks)
    in
    if exports && List.length rates <> 1 then
      fail "--prom, --metrics-csv and --perfetto need a single --rate";
    let tr = Option.map (fun _ -> Trace.start ~capacity:(1 lsl 21) ()) perfetto in
    let points =
      match rates with
      | [ rate ] -> [ Engine.run ?params cfg ~rate ]
      | rates -> with_jobs jobs (fun pool -> Engine.sweep ?params ?pool cfg ~rates)
    in
    if tr <> None then ignore (Trace.stop ());
    if json then print_string (Report.to_json cfg points)
    else
      with_ppf (fun ppf ->
        if c.csv then Report.pp_csv ppf points
        else begin
          Report.pp_config ppf cfg;
          Report.pp_table ppf points
        end);
    if not json && not c.csv then begin
      let leaked =
        List.fold_left (fun acc (p : Engine.point) -> acc + p.Engine.leaked) 0 points
      in
      if
        List.for_all
          (fun (p : Engine.point) -> p.Engine.served + p.Engine.shed = p.Engine.n)
          points
        && leaked = 0
      then
        Printf.printf "conservation: ok (served + shed = offered at every point, 0 leaked slots)\n"
      else begin
        Printf.printf "conservation: VIOLATED (%d leaked slot(s))\n" leaked;
        exit 1
      end;
      if cfg.Engine.telemetry then List.iter print_attribution points
    end;
    Option.iter
      (fun dest ->
        let n = List.length points in
        write_out dest (Report.telemetry_json cfg points)
          ~what:(Printf.sprintf "%d point%s" n (if n = 1 then "" else "s")))
      telemetry;
    match points with
    | [ { Engine.metrics = Some m; _ } ] -> (
      Option.iter (fun dest -> write_out ~what:"prometheus text" dest (Metrics.to_prometheus m)) prom;
      Option.iter (fun dest -> write_out ~what:"metrics CSV" dest (Metrics.to_csv m)) metrics_csv;
      match perfetto, tr with
      | Some dest, Some tr ->
        Perfetto.write_file ~counters:(Metrics.counter_tracks m) dest tr;
        Printf.printf "telemetry: wrote %s (%d events + %d counter tracks)\n" dest
          (Trace.length tr)
          (List.length (Metrics.counter_tracks m))
      | _ -> ())
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Open-loop serving: arrival-process load over a persistent \
             structure with group-committed persists, bounded admission and \
             load shedding; prints the throughput-latency sweep, and with \
             --telemetry the per-stage cycle attribution of every run")
    Term.(const run
          $ serving_term ~cmd:"serve" ~clients:Engine.default.Engine.clients
              ~depth:Engine.default.Engine.depth
          $ quick $ cores $ json $ telemetry $ window $ prom $ metrics_csv $ perfetto
          $ l2_banks_arg $ jobs_arg)

let fleet_cmd =
  let d = Fleet.default in
  let int_opt name v ~docv ~doc = Arg.(value & opt int v & info [ name ] ~docv ~doc) in
  let shards =
    int_opt "shards" d.Fleet.shards ~docv:"N" ~doc:"Independent serving shards (one system each)."
  in
  let replicas =
    int_opt "replicas" d.Fleet.replicas ~docv:"K" ~doc:"Copies of every key (1 <= K <= shards)."
  in
  let vnodes = int_opt "vnodes" d.Fleet.vnodes ~docv:"N" ~doc:"Ring virtual nodes per shard." in
  let faults =
    Arg.(value
         & opt (conv_of ~what:"fault schedule" ~of_name:Fleet.fault_schedule_of_name
                  ~to_name:Fleet.fault_schedule_name)
             d.Fleet.faults
         & info [ "fault-schedule" ] ~docv:"SCHED"
           ~doc:"Shard kills: none, rand:N (N seeded mid-run kills), or \
                 AT:SHARD[,AT:SHARD] explicit kill times in cycles.")
  in
  let retry_max =
    int_opt "retry-max" d.Fleet.retry_max ~docv:"N" ~doc:"Retry budget before a write is shed."
  in
  let backoff =
    int_opt "backoff" d.Fleet.backoff ~docv:"CYCLES"
      ~doc:"Base retry backoff; attempt i waits backoff*2^i (+ seeded jitter), \
            capped by --backoff-cap."
  in
  let backoff_cap =
    int_opt "backoff-cap" d.Fleet.backoff_cap ~docv:"CYCLES" ~doc:"Exponential backoff ceiling."
  in
  let timeout =
    int_opt "timeout" d.Fleet.timeout ~docv:"CYCLES" ~doc:"Dead-shard detection penalty."
  in
  let fanout_pct =
    int_opt "fanout-pct" d.Fleet.fanout_pct ~docv:"PCT"
      ~doc:"Percent of reads that become multi-gets."
  in
  let repro =
    Arg.(value & opt (some string) None
         & info [ "repro" ] ~docv:"FILE"
           ~doc:"Replay a fleet reproducer file instead of building a config \
                 from the other flags.")
  in
  let repro_out =
    Arg.(value & opt string "fleet-repro.txt"
         & info [ "repro-out" ] ~docv:"FILE"
           ~doc:"Where to write the shrunk reproducer when a run fails verification.")
  in
  let lat (p : Fleet.point) f = match p.Fleet.latency with Some s -> f s | None -> 0. in
  let pp_points ppf (cfg : Fleet.config) points =
    let open Format in
    fprintf ppf
      "fleet: %d shard(s) x %d replica(s), %s/%s/%s, %s keys, %d client(s), \
       %d request(s), faults %s, seed %d@."
      cfg.Fleet.shards cfg.Fleet.replicas
      (Ops.kind_name cfg.Fleet.kind) (Pctx.mode_name cfg.Fleet.mode)
      (Ds_bench.spec_name cfg.Fleet.spec)
      (Workload.name cfg.Fleet.workload)
      cfg.Fleet.clients cfg.Fleet.requests
      (Fleet.fault_schedule_name cfg.Fleet.faults) cfg.Fleet.seed;
    fprintf ppf
      "%8s %8s %7s %6s %6s %6s %6s %6s %7s %9s %9s %9s@." "offered" "achieved"
      "served" "shed" "part" "fail" "crash" "retry" "hints" "p50" "p99" "p99.9";
    List.iter
      (fun (p : Fleet.point) ->
        fprintf ppf "%8.1f %8.2f %7d %6d %6d %6d %6d %6d %7d %9.0f %9.0f %9.0f@."
          p.Fleet.offered p.Fleet.achieved p.Fleet.served p.Fleet.shed p.Fleet.partial
          p.Fleet.failovers p.Fleet.crashes p.Fleet.retries p.Fleet.hints
          (lat p (fun s -> s.Latency.p50)) (lat p (fun s -> s.Latency.p99))
          (lat p (fun s -> s.Latency.p999)))
      points;
    List.iter
      (fun (p : Fleet.point) ->
        if p.Fleet.crashes > 0 || p.Fleet.violations <> [] then begin
          fprintf ppf "-- rate %.1f: shard detail --@." p.Fleet.offered;
          Array.iter
            (fun (s : Fleet.shard_stat) ->
              fprintf ppf
                "  shard %d: %s, %d op(s), %d commit(s), %d shed, %d crash(es), \
                 %d hint(s) replayed, %d recovery cycle(s)@."
                s.Fleet.s_id s.Fleet.s_state s.Fleet.s_executed s.Fleet.s_commits
                s.Fleet.s_shed s.Fleet.s_crashes s.Fleet.s_hints s.Fleet.s_recovery)
            p.Fleet.shards
        end)
      points
  in
  let pp_csv ppf points =
    Format.fprintf ppf
      "offered,achieved,served,shed,partial,failovers,crashes,repairs,retries,hints,\
       recovery_cycles,elapsed,p50,p99,p999@.";
    List.iter
      (fun (p : Fleet.point) ->
        Format.fprintf ppf "%g,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%g@."
          p.Fleet.offered p.Fleet.achieved p.Fleet.served p.Fleet.shed p.Fleet.partial
          p.Fleet.failovers p.Fleet.crashes p.Fleet.repairs p.Fleet.retries
          p.Fleet.hints p.Fleet.recovery_cycles p.Fleet.elapsed
          (lat p (fun s -> s.Latency.p50)) (lat p (fun s -> s.Latency.p99))
          (lat p (fun s -> s.Latency.p999)))
      points
  in
  let run (c : serving) shards replicas vnodes faults retry_max backoff backoff_cap timeout
      fanout_pct repro repro_out jobs =
    let cfg, rates =
      match repro with
      | Some file -> (
        match Fleet.read_reproducer file with
        | Ok (cfg, rate) -> (cfg, [ rate ])
        | Error e -> fail "fleet" e)
      | None ->
        ( {
            d with
            Fleet.shards;
            replicas;
            vnodes;
            kind = c.kind;
            mode = c.mode;
            spec = c.spec;
            process = c.process;
            workload = c.workload;
            clients = c.clients;
            requests = Option.value c.requests ~default:d.Fleet.requests;
            depth = c.depth;
            batch = c.batch;
            retry_max;
            backoff;
            backoff_cap;
            timeout;
            fanout_pct;
            update_pct = c.update_pct;
            seed = c.seed;
            faults;
          },
          Option.value c.rates ~default:[ 16. ] )
    in
    (match Fleet.validate cfg with Ok () -> () | Error e -> fail "fleet" e);
    let points = with_jobs jobs (fun pool -> Fleet.sweep ?pool cfg ~rates) in
    with_ppf (fun ppf -> if c.csv then pp_csv ppf points else pp_points ppf cfg points);
    match List.filter (fun (p : Fleet.point) -> p.Fleet.violations <> []) points with
    | [] ->
      Printf.printf "conservation: ok (%d checkpoint(s))\n"
        (List.fold_left (fun acc (p : Fleet.point) -> acc + p.Fleet.checkpoints) 0 points);
      print_endline "verification: ok (durable linearizability holds fleet-wide)"
    | first :: _ as bad ->
      List.iter
        (fun (p : Fleet.point) ->
          Printf.printf "verification FAILED at rate %.1f (%d violation(s)):\n"
            p.Fleet.offered
            (List.length p.Fleet.violations);
          List.iteri
            (fun i v -> if i < 8 then print_endline ("  " ^ v))
            p.Fleet.violations)
        bad;
      let rate = first.Fleet.offered in
      let small, sp = Fleet.shrink cfg ~rate in
      Fleet.write_reproducer repro_out small ~rate;
      Printf.printf
        "minimal reproducer: %d request(s), %d violation(s) -> wrote %s\n"
        small.Fleet.requests
        (List.length sp.Fleet.violations)
        repro_out;
      exit 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Sharded serving fleet: consistent-hash routing with K-way \
             replication over independent shard systems, crash-driven \
             failover with retry/backoff and hinted handoff, graceful load \
             shedding, and fleet-wide durable-linearizability verification")
    Term.(const run
          $ serving_term ~cmd:"fleet" ~clients:d.Fleet.clients ~depth:d.Fleet.depth
          $ shards $ replicas $ vnodes $ faults $ retry_max $ backoff $ backoff_cap $ timeout
          $ fanout_pct $ repro $ repro_out $ jobs_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "skipit_sim" ~version:"1.0.0"
      ~doc:"Simulator for 'Skip It: Take Control of Your Cache!' (ASPLOS 2024)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            figure_cmd; ablate_cmd; run_cmd; audit_cmd; serve_cmd; fleet_cmd;
          ]))
