module S = Skipit_core.System
module T = Skipit_core.Thread

let bound = 10_000_000

let run sys ~doing f =
  let c0 = S.max_clock sys in
  let stop () = S.max_clock sys - c0 > bound in
  match T.run_until sys ~stop [ { T.core = 0; body = f } ] with
  | `Completed c -> Ok (c - c0)
  | `Stopped _ -> Error (Printf.sprintf "%s ran past %d cycles" (doing ()) bound)
