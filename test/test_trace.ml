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
    (contains "unterminated" (parse_err "core 0\nrepeat 2\n ld 0x40\n"));
  Alcotest.(check bool) "end without repeat" true
    (contains "end without" (parse_err "core 0\nend\n"));
  Alcotest.(check bool) "duplicate core" true
    (contains "duplicate" (parse_err "core 0\n ld 0x40\ncore 0\n ld 0x40\n"))

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

let tests =
  ( "trace",
    [
      Alcotest.test_case "parse basic" `Quick test_parse_basic;
      Alcotest.test_case "parse all ops" `Quick test_parse_all_ops;
      Alcotest.test_case "comments/whitespace" `Quick test_parse_comments_whitespace;
      Alcotest.test_case "repeat unrolls" `Quick test_repeat_unrolls;
      Alcotest.test_case "nested repeat" `Quick test_repeat_nested;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "run dataflow" `Quick test_run_dataflow;
      Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
      Alcotest.test_case "example traces parse" `Quick test_example_traces_parse;
    ] )
