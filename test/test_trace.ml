module TP = Skipit_workload.Trace_program
module Instr = Skipit_cpu.Instr
module S = Skipit_core.System
module C = Skipit_core.Config

let parse_ok src =
  match TP.parse src with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %s" e

let parse_err src =
  match TP.parse src with Ok _ -> Alcotest.fail "expected parse error" | Error e -> e

let test_parse_basic () =
  let t = parse_ok "core 0\n  ld 0x40\n  sd 0x40 7\n  fence\n" in
  Alcotest.(check int) "one core" 1 (List.length t);
  let _, instrs = List.hd t in
  Alcotest.(check int) "three instructions" 3 (List.length instrs);
  Alcotest.(check bool) "first is load" true (List.hd instrs = Instr.Load { addr = 0x40 })

let test_parse_all_ops () =
  let t =
    parse_ok
      "core 2\n\
       ld 64\n\
       sd 64 1\n\
       cas 64 1 2\n\
       cbo.clean 64\n\
       cbo.flush 64\n\
       cbo.inval 64\n\
       cbo.zero 64\n\
       fence\n\
       delay 10\n"
  in
  Alcotest.(check int) "max core" 2 (TP.max_core t);
  let _, instrs = List.hd t in
  Alcotest.(check int) "nine instructions" 9 (List.length instrs)

let test_parse_comments_whitespace () =
  let t = parse_ok "# header\n\ncore 0\n\t ld 0x40  # trailing\n   \n" in
  let _, instrs = List.hd t in
  Alcotest.(check int) "comment stripped" 1 (List.length instrs)

let test_repeat_unrolls () =
  let t = parse_ok "core 0\nrepeat 3\n  sd 0x40 1\nend\n" in
  let _, instrs = List.hd t in
  Alcotest.(check int) "unrolled" 3 (List.length instrs)

let test_repeat_nested () =
  let t = parse_ok "core 0\nrepeat 2\n sd 0x40 1\n repeat 3\n  ld 0x40\n end\nend\n" in
  let _, instrs = List.hd t in
  Alcotest.(check int) "2*(1+3)" 8 (List.length instrs);
  (* Ordering: sd, ld, ld, ld, sd, ld, ld, ld. *)
  Alcotest.(check bool) "first store" true (List.hd instrs = Instr.Store { addr = 0x40; value = 1 });
  Alcotest.(check bool) "fifth store" true (List.nth instrs 4 = Instr.Store { addr = 0x40; value = 1 })

let test_parse_errors () =
  let contains sub s =
    let n = String.length sub in
    let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "line number reported" true
    (contains "line 2" (parse_err "core 0\n  bogus 1\n"));
  Alcotest.(check bool) "outside core" true
    (contains "outside" (parse_err "ld 0x40\n"));
  Alcotest.(check bool) "unterminated repeat" true
    (contains "line 2: unterminated" (parse_err "core 0\nrepeat 2\n ld 0x40\n"));
  Alcotest.(check bool) "end without repeat" true
    (contains "end without" (parse_err "core 0\nend\n"));
  Alcotest.(check bool) "duplicate core" true
    (contains "duplicate" (parse_err "core 0\n ld 0x40\ncore 0\n ld 0x40\n"));
  (* Input the simulator cannot run is a parse error with its line, not
     an exception at run time. *)
  List.iter
    (fun (src, expect) ->
      let e = parse_err src in
      if not (List.for_all (fun sub -> contains sub e) expect) then
        Alcotest.failf "%S: error %S lacks %s" src e (String.concat ", " expect))
    [
      "core 0\n  sd -64 1\n", [ "line 2"; "negative address" ];
      "core 0\n  cbo.flush -0x40\n", [ "line 2"; "negative address" ];
      "core 0\n  ld 0x40\ncore -1\n  ld 0x40\n", [ "line 3"; "negative core" ];
      "core 0\n  delay -5\n", [ "line 2"; "negative delay" ];
      "core 0\n  repeat -1\n  end\n", [ "line 2"; "negative repeat count" ];
      (* Iterations at 64, 0, -64: the third drives the address below zero. *)
      "core 0\n  fence\n  repeat 3 step -64\n    ld 64\n  end\n", [ "line 3"; "below zero" ];
      (* Nested steps add up: 0x40 + 1*64 - 2*128 < 0. *)
      "core 0\nrepeat 3 step -128\n repeat 2 step 64\n  ld 0x40\n end\nend\n",
      [ "line 2"; "below zero" ];
      "core 0\nrepeat 3 step 0x2000000000000000\n ld 0x40\nend\n", [ "line 2"; "past max_int" ];
      "core 0\nrepeat 2 stride 64\n ld 0x40\nend\n", [ "line 2"; "expected repeat N [step S]" ];
      "core 0\nrepeat 2 step x\n ld 0x40\nend\n", [ "line 2"; "not a number" ];
      "core 0\nrepeat 1024\n repeat 1025\n  ld 0x40\n end\nend\n", [ "line 2"; "unrolls past" ];
    ];
  (* A step that stays in range is fine, and an empty body never unrolls. *)
  ignore (parse_ok "core 0\nrepeat 3 step -32\n ld 64\nend\n");
  ignore (parse_ok "core 0\nrepeat 4611686018427387903\nend\n")

let test_stepped_repeat () =
  let instrs src = snd (List.hd (parse_ok src)) in
  Alcotest.(check bool) "iteration k adds k*step to every address" true
    (instrs "core 0\nrepeat 3 step 64\n sd 0x40 1\n cas 0x40 0 1\n fence\n delay 5\nend\n"
    = List.concat_map
        (fun a ->
          [ Instr.Store { addr = a; value = 1 }; Instr.Cas { addr = a; expected = 0; desired = 1 };
            Instr.Fence; Instr.Delay 5 ])
        [ 0x40; 0x80; 0xc0 ]);
  Alcotest.(check bool) "nested steps add up" true
    (instrs "core 0\nrepeat 2 step 0x100\n repeat 2 step 64\n  ld 0\n end\nend\n"
    = List.map (fun addr -> Instr.Load { addr }) [ 0; 0x40; 0x100; 0x140 ]);
  Alcotest.(check bool) "step 0 is a plain repeat" true
    (instrs "core 0\nrepeat 3 step 0\n cbo.clean 0x40\nend\n"
    = instrs "core 0\nrepeat 3\n cbo.clean 0x40\nend\n")

(* The store+double-flush trace is the loop it replaced: 8 cores, core c
   storing to lines 8c .. 8c+7 of the region at 0x10000 and flushing each
   twice, then one fence. *)
let test_store_double_flush_trace () =
  let expected =
    List.init 8 (fun c ->
      ( c,
        List.concat
          (List.init 8 (fun i ->
             let addr = 0x10000 + (((c * 8) + i) * 64) in
             [ Instr.Store { addr; value = 1 }; Instr.Cbo_flush { addr };
               Instr.Cbo_flush { addr } ]))
        @ [ Instr.Fence ] ))
  in
  match TP.load_file (Example_trace.path "store_double_flush_8t") with
  | Ok t -> Alcotest.(check bool) "unrolled program" true (t = expected)
  | Error e -> Alcotest.fail e

let test_run_dataflow () =
  let t =
    parse_ok
      "core 0\n sd 0x1000 42\n cbo.clean 0x1000\n fence\ncore 1\n delay 500\n ld 0x1000\n"
  in
  let sys = S.create (C.platform ~cores:2 ()) in
  let cycles, checksums = TP.run sys t in
  Alcotest.(check bool) "time advanced" true (cycles > 500);
  Alcotest.(check int) "consumer saw the value" 42 checksums.(1);
  Alcotest.(check int) "persisted" 42 (S.persisted_word sys 0x1000)

let test_pp_roundtrip () =
  let t = parse_ok "core 0\n ld 0x40\n sd 0x80 5\n fence\ncore 1\n cbo.flush 0x40\n" in
  let printed = Format.asprintf "@[<v>%a@]" TP.pp t in
  let t2 = parse_ok printed in
  Alcotest.(check bool) "pp parses back to the same program" true (t = t2)

let test_example_traces_parse () =
  List.iter
    (fun path ->
      match TP.load_file path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" path e)
    (List.map Example_trace.path [ "producer_consumer"; "redundant_flush"; "fig5_semantics" ])

(* == Properties over generated programs ================================ *)

(* A program as its source text is written: instructions and nested
   repeat blocks, each with or without a step. *)
type item = I of Instr.t | Rep of int * int option * item list

let gen_instr =
  let open QCheck.Gen in
  let addr = int_range 0 0xffff and value = int_range (-1000) 1000 in
  oneof
    [
      map (fun addr -> Instr.Load { addr }) addr;
      map2 (fun addr value -> Instr.Store { addr; value }) addr value;
      map3 (fun addr expected desired -> Instr.Cas { addr; expected; desired }) addr value value;
      map (fun addr -> Instr.Cbo_clean { addr }) addr;
      map (fun addr -> Instr.Cbo_flush { addr }) addr;
      map (fun addr -> Instr.Cbo_inval { addr }) addr;
      map (fun addr -> Instr.Cbo_zero { addr }) addr;
      return Instr.Fence;
      map (fun n -> Instr.Delay n) (int_range 0 500);
    ]

let gen_items =
  let open QCheck.Gen in
  let step = oneof [ return None; map Option.some (int_range 0 256) ] in
  fix
    (fun self depth ->
      list_size (int_range 0 4)
        (if depth = 0 then map (fun i -> I i) gen_instr
         else
           frequency
             [
               3, map (fun i -> I i) gen_instr;
               1, map3 (fun n s body -> Rep (n, s, body)) (int_range 0 3) step (self (depth - 1));
             ]))
    2

(* Up to four core sections, in any order. *)
let gen_source =
  QCheck.Gen.(
    map2
      (fun cores bodies ->
        List.combine (List.filteri (fun i _ -> i < List.length bodies) cores) bodies)
      (shuffle_l [ 0; 1; 2; 3; 4; 5; 6; 7 ])
      (list_size (int_range 1 4) gen_items))

(* The test's own rendering of an instruction, decimal and hex mixed. *)
let instr_src = function
  | Instr.Load { addr } -> Printf.sprintf "ld %d" addr
  | Instr.Store { addr; value } -> Printf.sprintf "sd %#x %d" addr value
  | Instr.Cas { addr; expected; desired } -> Printf.sprintf "cas %d %d %d" addr expected desired
  | Instr.Cbo_clean { addr } -> Printf.sprintf "cbo.clean %#x" addr
  | Instr.Cbo_flush { addr } -> Printf.sprintf "cbo.flush %d" addr
  | Instr.Cbo_inval { addr } -> Printf.sprintf "cbo.inval %#x" addr
  | Instr.Cbo_zero { addr } -> Printf.sprintf "cbo.zero %d" addr
  | Instr.Fence -> "fence"
  | Instr.Delay n -> Printf.sprintf "delay %d" n

let source_of render cores =
  String.concat ""
    (List.map (fun (core, items) -> Printf.sprintf "core %d\n%s" core (render "  " items)) cores)

let rec render indent items =
  String.concat ""
    (List.map
       (function
         | I i -> indent ^ instr_src i ^ "\n"
         | Rep (n, step, body) ->
           Printf.sprintf "%srepeat %d%s\n%s%send\n" indent n
             (match step with Some s -> Printf.sprintf " step %d" s | None -> "")
             (render (indent ^ "  ") body) indent)
       items)

let shift d = function
  | Instr.Load { addr } -> Instr.Load { addr = addr + d }
  | Instr.Store { addr; value } -> Instr.Store { addr = addr + d; value }
  | Instr.Cas { addr; expected; desired } -> Instr.Cas { addr = addr + d; expected; desired }
  | Instr.Cbo_clean { addr } -> Instr.Cbo_clean { addr = addr + d }
  | Instr.Cbo_flush { addr } -> Instr.Cbo_flush { addr = addr + d }
  | Instr.Cbo_inval { addr } -> Instr.Cbo_inval { addr = addr + d }
  | Instr.Cbo_zero { addr } -> Instr.Cbo_zero { addr = addr + d }
  | (Instr.Fence | Instr.Delay _) as i -> i

(* Unroll by hand: iteration k of a block shifts its unrolled body by
   k * step. *)
let rec unroll items =
  List.concat_map
    (function
      | I i -> [ i ]
      | Rep (n, step, body) ->
        let body = unroll body and s = Option.value step ~default:0 in
        List.concat (List.init n (fun k -> List.map (shift (k * s)) body)))
    items

let arb_source = QCheck.make ~print:(source_of render) gen_source

let prop_pp_round_trip =
  QCheck.Test.make ~name:"trace parse (pp p) = p" ~count:500 arb_source (fun cores ->
    match TP.parse (source_of render cores) with
    | Error e -> QCheck.Test.fail_reportf "generated program rejected: %s" e
    | Ok p -> TP.parse (Format.asprintf "@[<v>%a@]" TP.pp p) = Ok p)

let prop_stepped_repeat_unrolls =
  QCheck.Test.make ~name:"stepped repeat equals its hand-unrolled program" ~count:500 arb_source
    (fun cores ->
      let by_hand _ items =
        String.concat "" (List.map (fun i -> "  " ^ instr_src i ^ "\n") (unroll items))
      in
      match TP.parse (source_of render cores), TP.parse (source_of by_hand cores) with
      | Ok p, Ok q -> p = q
      | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

let tests =
  ( "trace",
    [
      Alcotest.test_case "parse basic" `Quick test_parse_basic;
      Alcotest.test_case "parse all ops" `Quick test_parse_all_ops;
      Alcotest.test_case "comments/whitespace" `Quick test_parse_comments_whitespace;
      Alcotest.test_case "repeat unrolls" `Quick test_repeat_unrolls;
      Alcotest.test_case "nested repeat" `Quick test_repeat_nested;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "stepped repeat" `Quick test_stepped_repeat;
      Alcotest.test_case "store+double-flush trace" `Quick test_store_double_flush_trace;
      Alcotest.test_case "run dataflow" `Quick test_run_dataflow;
      Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
      Alcotest.test_case "example traces parse" `Quick test_example_traces_parse;
      QCheck_alcotest.to_alcotest prop_pp_round_trip;
      QCheck_alcotest.to_alcotest prop_stepped_repeat_unrolls;
    ] )
