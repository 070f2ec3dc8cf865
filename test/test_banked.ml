(* The banked NUCA L2 (lib/l2): a bank array behind the XOR-folded
   line-number interleave must be purely a timing change.  Banked and
   monolithic configurations are observationally equivalent on random
   schedules, the monolithic goldens stay bit-identical at l2_banks=1,
   figure output stays byte-identical at any pool width when the platform
   is banked, per-bank counters surface in the stats report, the invariant
   checker sums cleanly across banks, and the crash campaign survives
   crash/repair on a banked hierarchy. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module Params = Skipit_cache.Params
module TP = Skipit_workload.Trace_program
module Figures = Skipit_workload.Figures
module Pool = Skipit_par.Pool
module Invariant = Skipit_audit.Invariant
module Campaign = Skipit_audit.Campaign
module Pctx = Skipit_persist.Pctx
module Rng = Skipit_sim.Rng

(* == Monolithic goldens: banks=1 is the paper's L2, bit-identical ======= *)

let trace = Example_trace.path

let test_golden_cycles_at_one_bank () =
  List.iter
    (fun (name, golden) ->
      match TP.load_file (trace name) with
      | Error e -> Alcotest.failf "trace %s: %s" name e
      | Ok program ->
        let cores = TP.max_core program + 1 in
        (* A banked bus over one bank is one wire set every core shares:
           on these traces, the crossbar's cycles. *)
        List.iter
          (fun (topology, label) ->
            let sys =
              S.create (C.platform ~topology ~cores ~skip_it:false ~l2_banks:1 ())
            in
            let cycles, _ = TP.run sys program in
            Alcotest.(check int)
              (Printf.sprintf "%s at l2_banks=1, %s" name label)
              golden cycles;
            (* The monolithic report must not grow per-bank keys. *)
            List.iter
              (fun (k, _) ->
                if String.length k >= 8 && String.sub k 0 8 = "l2.bank." then
                  Alcotest.failf "%s: unexpected banked counter %s" name k)
              (S.stats_report sys))
          [ (`Crossbar, "crossbar"); (`Banked_bus, "banked bus") ])
    [ "producer_consumer", 915; "redundant_flush", 1120; "fig5_semantics", 127 ]

(* == Observational equivalence: banked vs monolithic ==================== *)

(* Drive the same randomly generated schedule through a system and record
   everything architecturally visible: every loaded value, every CAS
   outcome, and the final memory image.  Timing (cycle counts) is allowed
   to differ between bank counts; values are not. *)
let drive ~banks ~cores ~ops ~seed =
  let p = Params.with_l2_banks (C.tiny ~cores ()) banks in
  let sys = S.create p in
  let rng = Rng.create ~seed in
  let lines =
    Array.init 12 (fun _ ->
        Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64)
  in
  let obs = ref [] in
  for _ = 1 to ops do
    let core = Rng.int rng cores in
    let a = lines.(Rng.int rng (Array.length lines)) + (8 * Rng.int rng 8) in
    match Rng.int rng 10 with
    | 0 | 1 | 2 -> obs := S.load sys ~core a :: !obs
    | 3 | 4 | 5 -> S.store sys ~core a (Rng.int rng 10000)
    | 6 -> S.clean sys ~core a
    | 7 | 8 ->
      S.flush sys ~core a;
      S.fence sys ~core
    | _ ->
      let expected = Rng.int rng 10000 and desired = Rng.int rng 10000 in
      obs := (if S.cas sys ~core a ~expected ~desired then 1 else 0) :: !obs
  done;
  let coherent = Structural.first_violation sys in
  let final =
    Array.to_list lines
    |> List.concat_map (fun base ->
           List.init 8 (fun w -> S.peek_word sys (base + (8 * w))))
  in
  (List.rev !obs @ final, coherent)

let prop_banked_equivalent =
  QCheck.Test.make ~name:"banked L2 observationally equal to monolithic"
    ~count:25
    QCheck.(triple small_int (int_range 1 4) (int_range 1 2))
  @@ fun (seed, cores, lg_banks) ->
  let banks = 1 lsl lg_banks in
  let mono, c1 = drive ~banks:1 ~cores ~ops:300 ~seed in
  let banked, cb = drive ~banks ~cores ~ops:300 ~seed in
  match (c1, cb) with
  | Some e, _ -> QCheck.Test.fail_reportf "monolithic incoherent: %s" e
  | _, Some e -> QCheck.Test.fail_reportf "banks=%d incoherent: %s" banks e
  | None, None ->
    if mono <> banked then
      QCheck.Test.fail_reportf
        "banks=%d diverged from monolithic (seed=%d cores=%d)" banks seed
        cores
    else true

(* == Determinism under the pool on a banked platform ==================== *)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_open_vbox ppf 0;
  f ppf;
  Format.pp_close_box ppf ();
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let figure_output ~params name ~jobs =
  match Figures.by_name name with
  | None -> Alcotest.failf "unknown figure %s" name
  | Some f ->
    Pool.with_pool ~jobs (fun pool ->
      render (fun ppf -> f ~quick:true ~pool ~params ppf))

let test_banked_deterministic () =
  (* fig9 on the 4-banked platform: byte-identical output at widths 1, 2
     and 8, whichever domain ran which job. *)
  let params = C.platform ~l2_banks:4 () in
  let seq = figure_output ~params "fig9" ~jobs:1 in
  Alcotest.(check bool) "banked fig9 non-empty" true (String.length seq > 0);
  List.iter
    (fun jobs ->
      let par = figure_output ~params "fig9" ~jobs in
      Alcotest.(check bool)
        (Printf.sprintf "banked fig9 --jobs 1 vs --jobs %d" jobs)
        true (String.equal seq par))
    [ 2; 8 ]

(* == Per-bank counters and cross-bank invariants ======================== *)

let test_per_bank_stats_and_invariants () =
  let sys = S.create (C.platform ~cores:2 ~l2_banks:4 ()) in
  let alloc = S.allocator sys in
  let lines =
    Array.init 64 (fun _ -> Skipit_mem.Allocator.alloc_line alloc ~line_bytes:64)
  in
  Array.iteri
    (fun i a ->
      S.store sys ~core:(i land 1) a (i + 1);
      S.flush sys ~core:(i land 1) a)
    lines;
  S.fence sys ~core:0;
  S.fence sys ~core:1;
  let report = S.stats_report sys in
  let bank_has i =
    let prefix = Printf.sprintf "l2.bank.%d." i in
    List.exists
      (fun (k, v) ->
        v > 0
        && String.length k > String.length prefix
        && String.sub k 0 (String.length prefix) = prefix)
      report
  in
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "l2.bank.%d.* counters present and active" i)
      true (bank_has i)
  done;
  Array.iteri
    (fun i a ->
      Alcotest.(check int) (Printf.sprintf "line %d readback" i) (i + 1)
        (S.load sys ~core:0 a))
    lines;
  match Invariant.check_all ~quiesced:true sys with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "banked invariant: %s" (Invariant.violation_to_string v)

(* == Crash campaign on a banked hierarchy =============================== *)

let test_banked_campaign_smoke () =
  let spec =
    {
      Campaign.structure = Campaign.Queue;
      mode = Pctx.Manual;
      strategy = Skipit_workload.Ds_bench.Skipit;
      fault = Campaign.No_fault;
      seed = 11;
      n_ops = 10;
      l2_banks = 4;
    }
  in
  let r = Campaign.run_spec ~budget:3 spec in
  match r.Campaign.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "banked campaign %s failed at crash_at=%s: %s"
      (Campaign.spec_name spec)
      (match f.Campaign.crash_at with
       | Some b -> string_of_int b
       | None -> "-")
      (String.concat "; " f.Campaign.violations)

let tests =
  ( "banked-l2",
    [
      Alcotest.test_case "goldens at l2_banks=1" `Quick
        test_golden_cycles_at_one_bank;
      QCheck_alcotest.to_alcotest prop_banked_equivalent;
      Alcotest.test_case "any-width determinism, banks=4" `Quick test_banked_deterministic;
      Alcotest.test_case "per-bank stats + invariants" `Quick
        test_per_bank_stats_and_invariants;
      Alcotest.test_case "crash campaign, banks=4" `Quick
        test_banked_campaign_smoke;
    ] )
