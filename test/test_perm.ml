open Skipit_tilelink

let all_perms = [ Perm.Nothing; Perm.Branch; Perm.Trunk ]
let all_grows = [ Perm.N_to_B; Perm.N_to_T; Perm.B_to_T ]

let all_shrinks =
  [ Perm.T_to_B; Perm.T_to_N; Perm.B_to_N; Perm.T_to_T; Perm.B_to_B; Perm.N_to_N ]

let test_order () =
  Alcotest.(check bool) "N < B" true (Perm.compare Perm.Nothing Perm.Branch < 0);
  Alcotest.(check bool) "B < T" true (Perm.compare Perm.Branch Perm.Trunk < 0);
  List.iter (fun p -> Alcotest.(check bool) "reflexive includes" true (Perm.includes p p)) all_perms;
  Alcotest.(check bool) "T includes B" true (Perm.includes Perm.Trunk Perm.Branch);
  Alcotest.(check bool) "B !includes T" false (Perm.includes Perm.Branch Perm.Trunk)

let test_grow_endpoints () =
  List.iter
    (fun g ->
      Alcotest.(check bool) "grow raises" true
        (Perm.compare (Perm.grow_from g) (Perm.grow_to g) < 0))
    all_grows

let test_shrink_endpoints () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "shrink never raises" true
        (Perm.compare (Perm.shrink_from s) (Perm.shrink_to s) >= 0))
    all_shrinks

let test_shrink_for_consistent () =
  List.iter
    (fun from ->
      List.iter
        (fun cap ->
          let s = Perm.shrink_for ~from ~cap in
          Alcotest.(check bool) "reports the held level" true
            (Perm.equal (Perm.shrink_from s) from);
          let target = if Perm.compare from cap > 0 then cap else from in
          Alcotest.(check bool) "lands at min(from, cap)" true
            (Perm.equal (Perm.shrink_to s) target))
        all_perms)
    all_perms

let test_pp () =
  Alcotest.(check (list string)) "perm" [ "N"; "B"; "T" ] (List.map Perm.to_string all_perms)

let tests =
  ( "perm",
    [
      Alcotest.test_case "lattice order" `Quick test_order;
      Alcotest.test_case "grow endpoints" `Quick test_grow_endpoints;
      Alcotest.test_case "shrink endpoints" `Quick test_shrink_endpoints;
      Alcotest.test_case "shrink_for consistent" `Quick test_shrink_for_consistent;
      Alcotest.test_case "pretty printing" `Quick test_pp;
    ] )
