(* The workload-generation layer: the Q30 integer Zipf sampler against a
   naive float reference (the integer kernel exists so schedules are
   bit-identical across hosts — but it still has to be *correct*, which
   the float reference checks), sampled frequencies against the CDF,
   cross-host determinism pins, churn rotation, mix parsing, and the
   diurnal phase plumbing in [Arrival]. *)

module Arrival = Skipit_serve.Arrival
module Workload = Skipit_serve.Workload
module Rng = Skipit_sim.Rng
module Zipf = Skipit_sim.Zipf

let zipf ?churn theta_milli =
  { Workload.keys = Workload.Zipf { theta_milli }; churn }

(* == Q30 CDF vs the naive float reference ============================== *)

(* Normalised CDF fractions of the integer table must track the float
   reference sum(k^-theta).  The kernel is good to ~1e-6 absolute over
   the whole supported (n, theta) envelope; the tolerance leaves room
   for the tail floor (every weight >= 1 ulp). *)
let cdf_close ~n ~theta_milli =
  let cum = Zipf.cdf ~n ~theta_milli in
  let total = float_of_int cum.(n - 1) in
  let theta = float_of_int theta_milli /. 1000. in
  let fw = Array.init n (fun k -> Float.pow (float_of_int (k + 1)) (-.theta)) in
  let ftot = Array.fold_left ( +. ) 0. fw in
  let facc = ref 0. and worst = ref 0. in
  Array.iteri
    (fun k w ->
      facc := !facc +. w;
      let err =
        abs_float ((float_of_int cum.(k) /. total) -. (!facc /. ftot))
      in
      if err > !worst then worst := err)
    fw;
  !worst

let test_cdf_reference () =
  List.iter
    (fun (n, theta_milli) ->
      let worst = cdf_close ~n ~theta_milli in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d theta_milli=%d: |cdf - ref| = %g < 1e-5" n
           theta_milli worst)
        true (worst < 1e-5))
    [ (1, 990); (50, 900); (50, 990); (64, 1200); (100, 0); (512, 2000);
      (512, 4000); (4096, 990) ]

let prop_cdf_reference =
  QCheck.Test.make ~name:"Q30 zipf CDF tracks float reference" ~count:100
    QCheck.(pair (int_range 1 600) (int_range 0 4000))
    (fun (n, theta_milli) ->
      match cdf_close ~n ~theta_milli with
      | worst when worst < 1e-5 -> true
      | worst ->
        QCheck.Test.fail_reportf "n=%d theta_milli=%d: worst err %g" n
          theta_milli worst)

let test_cdf_monotone_positive () =
  let cum = Zipf.cdf ~n:1024 ~theta_milli:4000 in
  Array.iteri
    (fun k c ->
      (* Strictly increasing: the 1-ulp floor keeps every key reachable
         even at theta = 4 deep in the tail. *)
      Alcotest.(check bool) "cdf strictly increasing" true
        (c > if k = 0 then 0 else cum.(k - 1)))
    cum

(* == Sampled frequencies vs the CDF ===================================== *)

let test_draw_frequencies () =
  let n = 32 and samples = 20_000 in
  let draw =
    Workload.draw (zipf 990) ~key_range:n ~update_pct:20 ~seed:5
  in
  let rng = Rng.create ~seed:77 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to samples do
    let _, key = draw rng ~at:0 in
    Alcotest.(check bool) "key in range" true (key >= 1 && key <= n);
    counts.(key) <- counts.(key) + 1
  done;
  (* Reconstruct the seeded rank->key permutation and compare each key's
     empirical frequency with its CDF mass: Pearson chi-square, 31 dof.
     The 99.9th percentile of chi2(31) is 61.1; everything here is
     seeded, so this is a deterministic regression check, not a flaky
     statistical one. *)
  let cum = Zipf.cdf ~n ~theta_milli:990 in
  let total = float_of_int cum.(n - 1) in
  let perm = Array.init n (fun i -> i + 1) in
  Rng.shuffle (Rng.create ~seed:5) perm;
  let chi = ref 0. in
  for rank = 0 to n - 1 do
    let mass = cum.(rank) - if rank = 0 then 0 else cum.(rank - 1) in
    let expected = float_of_int mass /. total *. float_of_int samples in
    let observed = float_of_int counts.(perm.(rank)) in
    chi := !chi +. (((observed -. expected) ** 2.) /. expected)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.2f < 61.1 (chi2_31 @ 0.999)" !chi)
    true (!chi < 61.1)

let test_draw_skews () =
  (* Rank-0 mass should dominate at theta = 0.99 over 256 keys: ~16% of
     draws against 0.39% under uniform. *)
  let n = 256 and samples = 10_000 in
  let draw = Workload.draw (zipf 990) ~key_range:n ~update_pct:0 ~seed:3 in
  let rng = Rng.create ~seed:11 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to samples do
    let _, key = draw rng ~at:0 in
    counts.(key) <- counts.(key) + 1
  done;
  let top = Array.fold_left max 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "hottest key holds %d/%d draws (>= 10x uniform)" top samples)
    true
    (top * n >= 10 * samples)

(* == Cross-host determinism pins ======================================== *)

let op_key = Alcotest.(list (pair string int))

let test_draw_golden () =
  (* Pinned (op, key) stream: zipf:0.99 over 16 keys, 20% updates,
     workload seed 7, arrival stream seed 123.  Any change to the Q30
     kernel, the permutation seeding or the rng consumption order shows
     up here before it shows up as a CI diff between hosts. *)
  let draw = Workload.draw (zipf 990) ~key_range:16 ~update_pct:20 ~seed:7 in
  let rng = Rng.create ~seed:123 in
  let got =
    List.init 8 (fun _ ->
        let op, key = draw rng ~at:0 in
        (Arrival.op_name op, key))
  in
  Alcotest.check op_key "pinned zipf draw stream"
    [ ("delete", 13); ("contains", 4); ("contains", 16); ("contains", 5);
      ("contains", 13); ("delete", 9); ("contains", 9); ("contains", 2) ]
    got

let test_churn_golden () =
  (* Same rng state at every call, so the key only moves when the churn
     epoch rotates the permutation offset. *)
  let draw =
    Workload.draw (zipf 990 ~churn:100) ~key_range:16 ~update_pct:20 ~seed:7
  in
  let key_at at =
    let _, key = draw (Rng.create ~seed:99) ~at in
    key
  in
  Alcotest.(check (list int)) "pinned per-epoch hot key"
    [ 13; 5; 8; 11; 7; 7; 1; 1 ]
    (List.init 8 (fun e -> key_at (e * 100)))

(* == Churn rotation ===================================================== *)

let test_churn_rotates () =
  let draw =
    Workload.draw (zipf 990 ~churn:200) ~key_range:64 ~update_pct:0 ~seed:42
  in
  let key_at at =
    let _, key = draw (Rng.create ~seed:1) ~at in
    key
  in
  (* Constant within an epoch... *)
  Alcotest.(check int) "stable inside epoch 0" (key_at 0) (key_at 199);
  Alcotest.(check int) "stable inside epoch 3" (key_at 600) (key_at 799);
  (* ...and the hot set moves across epochs (with a 1/64 chance per epoch
     of a coincidental repeat, 20 epochs all matching means it's broken). *)
  let first = key_at 0 in
  Alcotest.(check bool) "offset rotates across epochs" true
    (List.exists (fun e -> key_at (e * 200) <> first) (List.init 20 succ));
  (* The epoch memo must survive non-monotonic [at] (pool workers replay
     arrivals out of order). *)
  let a = key_at 0 in
  let _ = key_at 1000 in
  Alcotest.(check int) "memo recomputes on epoch re-entry" a (key_at 0)

let test_churn_same_seed_same_rotation () =
  let mk () =
    Workload.draw (zipf 990 ~churn:50) ~key_range:32 ~update_pct:50 ~seed:9
  in
  let sample draw =
    let rng = Rng.create ~seed:4 in
    List.init 40 (fun i ->
        let op, key = draw rng ~at:(i * 37) in
        (Arrival.op_name op, key))
  in
  Alcotest.check op_key "same seed, same churned stream" (sample (mk ()))
    (sample (mk ()))

(* == Validation and names =============================================== *)

let test_validate () =
  let ok t kr = Result.is_ok (Workload.validate t ~key_range:kr) in
  Alcotest.(check bool) "uniform ok" true (ok Workload.default 1_000_000);
  Alcotest.(check bool) "zipf ok" true (ok (zipf 990) 4096);
  Alcotest.(check bool) "zipf+churn ok" true (ok (zipf 990 ~churn:4000) 4096);
  Alcotest.(check bool) "churn without zipf rejected" false
    (ok { Workload.keys = Workload.Uniform; churn = Some 100 } 4096);
  Alcotest.(check bool) "non-positive churn rejected" false
    (ok (zipf 990 ~churn:0) 4096);
  Alcotest.(check bool) "theta above 4.0 rejected" false (ok (zipf 4001) 4096);
  Alcotest.(check bool) "zipf key_range above CDF cap rejected" false
    (ok (zipf 990) ((1 lsl 22) + 1));
  Alcotest.(check bool) "uniform key_range unbounded" true
    (ok Workload.default ((1 lsl 22) + 1))

let test_names_round_trip () =
  List.iter
    (fun keys ->
      let name = Workload.keys_name keys in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Workload.keys_of_name name = Some keys))
    [ Workload.Uniform; Workload.Zipf { theta_milli = 990 };
      Workload.Zipf { theta_milli = 1200 }; Workload.Zipf { theta_milli = 0 };
      Workload.Zipf { theta_milli = 4000 } ];
  Alcotest.(check bool) "bare zipf means 0.99" true
    (Workload.keys_of_name "zipf" = Some (Workload.Zipf { theta_milli = 990 }));
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Workload.keys_of_name s = None))
    [ "zipf:4.001"; "zipf:-1"; "zipf:0.9999"; "zipf:"; "lru"; "zipfian:1";
      "zipf:9223372036854776"; "zipf:99999999999999999999.5" ];
  Alcotest.(check string) "churn shows in the workload name"
    "zipf:0.99+churn:4000"
    (Workload.name (zipf 990 ~churn:4000))

let test_mix_of_spec () =
  List.iter
    (fun (spec, expect) ->
      Alcotest.(check (option int)) ("mix " ^ spec) expect
        (Workload.mix_of_spec spec))
    [ ("80:20", Some 20); ("100:0", Some 0); ("0:100", Some 100);
      ("4:1", Some 20); ("1:2", Some 67); ("50:50", Some 50); ("0:0", None);
      ("a:b", None); ("50", None); ("-1:2", None); ("1:2:3", None);
      ("0:100000000000000000", None) ]

(* == Parser fuzzing ===================================================== *)

(* Every parser of user or reproducer input is total, and inverts its
   printer.  The fuzz strings are either a keyword followed by digit runs
   and separators, or a valid name with one digit run replaced by a long
   one (past max_int, or just past a range check once scaled), or lines of
   trace-program tokens. *)
module Fleet = Skipit_fleet.Fleet
module Trace_program = Skipit_workload.Trace_program

let digit_run lo hi =
  QCheck.Gen.(string_size ~gen:(char_range '0' '9') (int_range lo hi))

let any_nat = QCheck.Gen.(map (fun x -> x land max_int) int)

(* At least one phase with a non-zero multiplier, as [valid_phases] needs. *)
let phase_list =
  QCheck.Gen.(
    map2
      (fun ph (l, m) -> (l, m) :: ph)
      (list_size (int_range 0 3) (pair (int_range 1 100_000) (int_range 0 1_000_000)))
      (pair (int_range 1 100_000) (int_range 1 1_000_000)))

let phases_spec ph =
  String.concat ","
    (List.map (fun (l, m) -> Printf.sprintf "%d:%d.%03d" l (m / 1000) (m mod 1000)) ph)

let gen_process =
  let open QCheck.Gen in
  let base =
    oneof
      [ return Arrival.Poisson;
        map2 (fun on off -> Arrival.Bursty { on = on + 1; off }) any_nat any_nat ]
  in
  let phased = map2 (fun phases base -> Arrival.Phased { phases; base }) phase_list base in
  (* Sorted, disjoint, non-empty windows from (gap, length) pairs. *)
  let windows =
    map
      (fun gaps ->
        List.fold_left
          (fun (t, acc) (gap, len) -> (t + gap + len + 1, (t + gap, t + gap + len + 1) :: acc))
          (0, []) gaps
        |> snd |> List.rev)
      (list_size (int_range 1 3) (pair (int_range 0 10_000) (int_range 0 10_000)))
  in
  oneof
    [ base; phased;
      map2 (fun windows base -> Arrival.Degraded { windows; base }) windows
        (oneof [ base; phased ]) ]

let gen_faults =
  let open QCheck.Gen in
  let kill = map2 (fun at shard -> { Fleet.at; shard }) any_nat (int_range 0 64) in
  oneof
    [ return Fleet.No_faults;
      map (fun n -> Fleet.Seeded (n + 1)) (int_range 0 1_000_000);
      map (fun fs -> Fleet.Kill fs) (list_size (int_range 1 4) kill) ]

(* Replace the [k]-th maximal digit run of [s] (mod their count) by [run]. *)
let replace_digit_run s k run =
  let digit c = c >= '0' && c <= '9' in
  let starts = ref [] in
  String.iteri
    (fun i c -> if digit c && (i = 0 || not (digit s.[i - 1])) then starts := i :: !starts)
    s;
  match List.rev !starts with
  | [] -> s ^ ":" ^ run
  | starts ->
    let i = List.nth starts (k mod List.length starts) in
    let j = ref i in
    while !j < String.length s && digit s.[!j] do incr j done;
    String.sub s 0 i ^ run ^ String.sub s !j (String.length s - !j)

let gen_fuzz =
  let open QCheck.Gen in
  let keyword =
    oneofl [ ""; "zipf:"; "uniform:"; "poisson:"; "bursty:"; "phases:"; "degraded:"; "rand:" ]
  in
  let sep = oneofl [ ":"; ","; "."; "-"; "x"; "/" ] in
  let run = oneof [ digit_run 0 3; digit_run 15 25 ] in
  let random =
    map2
      (fun kw (d, rest) -> kw ^ d ^ String.concat "" (List.map (fun (s, d) -> s ^ d) rest))
      keyword
      (pair run (list_size (int_range 0 3) (pair sep run)))
  in
  let valid_name =
    oneof
      [ map
          (fun m -> Workload.keys_name (Workload.Zipf { theta_milli = m }))
          (int_range 0 4000);
        map phases_spec phase_list;
        map Arrival.process_name gen_process;
        map Fleet.fault_schedule_name gen_faults ]
  in
  (* Keywords and operands in any order, so the trace parser sees core
     sections, nested and stepped repeat blocks and negative or overlong
     numbers, not only a first-line error. *)
  let trace =
    let number =
      oneof
        [ map string_of_int (int_range (-8) 300);
          map (Printf.sprintf "%#x") (int_range 0 0x20000);
          digit_run 15 25 ]
    in
    let word =
      oneofl
        [ "core"; "repeat"; "step"; "end"; "ld"; "sd"; "cas"; "cbo.clean"; "cbo.flush";
          "cbo.inval"; "cbo.zero"; "fence"; "delay"; "#"; "x" ]
    in
    let line =
      map (String.concat " ")
        (frequency
           [ 3, map2 List.cons word (list_size (int_range 0 3) number);
             1, list_size (int_range 0 4) (frequency [ 3, word; 2, number ]) ])
    in
    map2 ( ^ )
      (oneofl [ ""; "core 0\n" ])
      (map (String.concat "\n") (list_size (int_range 0 12) line))
  in
  oneof [ random; map3 replace_digit_run valid_name nat (digit_run 4 25); trace ]

let prop_parsers_total_and_round_trip =
  let gen =
    QCheck.Gen.(
      pair gen_fuzz
        (pair
           (pair (int_range 0 4000) (int_range 0 100))
           (triple phase_list gen_process gen_faults)))
  in
  QCheck.Test.make ~name:"parsers are total and round-trip" ~count:2000
    (QCheck.make ~print:(fun (s, _) -> Printf.sprintf "%S" s) gen)
    (fun (s, ((theta_milli, update_pct), (phases, process, faults))) ->
      ignore (Workload.keys_of_name s);
      ignore (Arrival.process_of_name s);
      ignore (Arrival.phases_of_spec s);
      ignore (Fleet.fault_schedule_of_name s);
      ignore (Trace_program.parse s);
      (match Workload.mix_of_spec s with
       | Some u when u < 0 || u > 100 -> QCheck.Test.fail_reportf "mix %S -> %d" s u
       | _ -> ());
      let keys = Workload.Zipf { theta_milli } in
      Workload.keys_of_name (Workload.keys_name keys) = Some keys
      && Workload.mix_of_spec (Printf.sprintf "%d:%d" (100 - update_pct) update_pct)
         = Some update_pct
      && Arrival.phases_of_spec (phases_spec phases) = Some phases
      && Arrival.process_of_name (Arrival.process_name process) = Some process
      && Fleet.fault_schedule_of_name (Fleet.fault_schedule_name faults) = Some faults)

(* == Diurnal phases ===================================================== *)

let test_phase_names_round_trip () =
  List.iter
    (fun p ->
      let name = Arrival.process_name p in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Arrival.process_of_name name = Some p))
    [ Arrival.Phased { phases = [ (4000, 500); (4000, 1500) ]; base = Arrival.Poisson };
      Arrival.Phased
        { phases = [ (100, 0); (900, 2000) ]; base = Arrival.Bursty { on = 10; off = 30 } };
      Arrival.Degraded
        { windows = [ (50, 80) ];
          base = Arrival.Phased { phases = [ (40, 250) ]; base = Arrival.Poisson } } ]

let test_phases_of_spec () =
  Alcotest.(check (option (list (pair int int)))) "decimal multipliers"
    (Some [ (4000, 500); (4000, 1500) ])
    (Arrival.phases_of_spec "4000:0.5,4000:1.5");
  Alcotest.(check (option (list (pair int int)))) "zero trough allowed"
    (Some [ (100, 0); (300, 1333) ])
    (Arrival.phases_of_spec "100:0,300:1.333");
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Arrival.phases_of_spec s = None))
    [ ""; "4000"; "4000:0.5,"; "0:1"; "100:0"; "100:-1"; "100:x"; "100:1001" ]

let test_with_phases () =
  let ph = [ (10, 500); (10, 1500) ] in
  Alcotest.(check bool) "wraps poisson" true
    (Arrival.with_phases Arrival.Poisson ph
    = Some (Arrival.Phased { phases = ph; base = Arrival.Poisson }));
  (let d = Arrival.Degraded { windows = [ (5, 9) ]; base = Arrival.Poisson } in
   Alcotest.(check bool) "wraps under degraded windows" true
     (Arrival.with_phases d ph
     = Some
         (Arrival.Degraded
            { windows = [ (5, 9) ];
              base = Arrival.Phased { phases = ph; base = Arrival.Poisson } })));
  Alcotest.(check bool) "refuses double phasing" true
    (Arrival.with_phases (Arrival.Phased { phases = ph; base = Arrival.Poisson }) ph
    = None);
  Alcotest.(check bool) "refuses an all-zero cycle" true
    (Arrival.with_phases Arrival.Poisson [ (10, 0) ] = None)

let test_phase_trough_is_dark () =
  (* 1000-cycle dead trough alternating with a 2x segment: no arrival may
     land in [0, 1000) mod 2000, for a serve-sized and a fleet-sized
     population. *)
  List.iter
    (fun clients ->
      let s =
        Arrival.schedule
          ~process:
            (Arrival.Phased { phases = [ (1000, 0); (1000, 2000) ]; base = Arrival.Poisson })
          ~rate:8. ~clients ~requests:300 ~key_range:64 ~update_pct:20 ~seed:17
          ()
      in
      Alcotest.(check int) "full schedule" 300 (Array.length s);
      Array.iter
        (fun (r : Arrival.request) ->
          Alcotest.(check bool)
            (Printf.sprintf "clients=%d: arrival %d outside the trough" clients
               r.Arrival.arrival)
            true
            (r.Arrival.arrival mod 2000 >= 1000))
        s)
    [ 8; 1024 ]

let test_mult_milli_at () =
  let p = Arrival.Phased { phases = [ (100, 250); (50, 0); (100, 2000) ]; base = Arrival.Poisson } in
  List.iter
    (fun (t, expect) ->
      Alcotest.(check int) (Printf.sprintf "mult at %d" t) expect
        (Arrival.mult_milli_at p t))
    [ (0, 250); (99, 250); (100, 0); (149, 0); (150, 2000); (249, 2000);
      (250, 250); (349, 250); (499, 2000) ];
  Alcotest.(check int) "non-phased is 1000" 1000
    (Arrival.mult_milli_at Arrival.Poisson 12345)

let test_zipf_schedule_deterministic () =
  let mk () =
    let draw = Workload.draw (zipf 990 ~churn:500) ~key_range:128 ~update_pct:20 ~seed:44 in
    Arrival.schedule
      ~process:(Arrival.Phased { phases = [ (500, 500); (500, 1500) ]; base = Arrival.Poisson })
      ~draw ~rate:8. ~clients:8 ~requests:400 ~key_range:128 ~update_pct:20
      ~seed:42 ()
  in
  let tup (r : Arrival.request) =
    (r.Arrival.arrival, r.Arrival.client, Arrival.op_name r.Arrival.op, r.Arrival.key)
  in
  Alcotest.(check bool) "same config, same zipf schedule" true
    (Array.for_all2 (fun a b -> tup a = tup b) (mk ()) (mk ()));
  let uniform =
    Arrival.schedule
      ~process:(Arrival.Phased { phases = [ (500, 500); (500, 1500) ]; base = Arrival.Poisson })
      ~rate:8. ~clients:8 ~requests:400 ~key_range:128 ~update_pct:20 ~seed:42
      ()
  in
  Alcotest.(check bool) "zipf keys differ from uniform keys" false
    (Array.for_all2 (fun a b -> tup a = tup b) (mk ()) uniform)

let tests =
  ( "workload-gen",
    [
      Alcotest.test_case "Q30 CDF matches float reference" `Quick test_cdf_reference;
      QCheck_alcotest.to_alcotest prop_cdf_reference;
      Alcotest.test_case "CDF strictly increasing at theta=4" `Quick
        test_cdf_monotone_positive;
      Alcotest.test_case "sampled frequencies match CDF (chi-square)" `Quick
        test_draw_frequencies;
      Alcotest.test_case "zipf skews toward the hot key" `Quick test_draw_skews;
      Alcotest.test_case "pinned draw stream (cross-host)" `Quick test_draw_golden;
      Alcotest.test_case "pinned churn epochs (cross-host)" `Quick test_churn_golden;
      Alcotest.test_case "churn rotates per epoch, stable within" `Quick
        test_churn_rotates;
      Alcotest.test_case "churn streams reproducible" `Quick
        test_churn_same_seed_same_rotation;
      Alcotest.test_case "workload validation" `Quick test_validate;
      Alcotest.test_case "keys names round-trip" `Quick test_names_round_trip;
      Alcotest.test_case "mix spec parsing" `Quick test_mix_of_spec;
      QCheck_alcotest.to_alcotest prop_parsers_total_and_round_trip;
      Alcotest.test_case "phase names round-trip" `Quick test_phase_names_round_trip;
      Alcotest.test_case "phase spec parsing" `Quick test_phases_of_spec;
      Alcotest.test_case "with_phases nesting" `Quick test_with_phases;
      Alcotest.test_case "zero-mult trough has no arrivals" `Quick
        test_phase_trough_is_dark;
      Alcotest.test_case "mult_milli_at segments" `Quick test_mult_milli_at;
      Alcotest.test_case "zipf+churn+phases schedule deterministic" `Quick
        test_zipf_schedule_deterministic;
    ] )
