(* The example trace programs, as the tests see them from their build
   directory.  test/dune declares every examples/traces/*.trace as a dep,
   so editing a trace reruns the tests that read it. *)

let path name = Printf.sprintf "../examples/traces/%s.trace" name
