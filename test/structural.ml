(* The hierarchy's structural invariants, as the tests check them:
   Invariant.check_all, the one judge, on a system that may be mid-run
   (not quiesced). *)

module Invariant = Skipit_audit.Invariant

(* The first violation's text, if any. *)
let first_violation sys =
  match Invariant.check_all sys with
  | [] -> None
  | v :: _ -> Some (Invariant.violation_to_string v)

(* Fail the test with the first violation's text. *)
let check sys = Option.iter Alcotest.fail (first_violation sys)
