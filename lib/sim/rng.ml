type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let copy t = { state = t.state }
let copy_into ~src ~dst = dst.state <- src.state

let int t bound =
  assert (bound > 0);
  (* Take the top bits: splitmix64's high bits are the best-distributed. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let int_in t ~lo ~hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t =
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int raw /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L
let chance t p = float t < p

(* [float t < p] compares [raw53 * 2^-53] with [p]; scaling by a power of
   two is exact and [raw53] is an integer, so the test is exactly
   [raw53 < ceil (p * 2^53)]. *)
let two_53 = 9007199254740992.0

let chance_threshold p =
  if p >= 1. then 1 lsl 53
  else if p > 0. then int_of_float (Float.ceil (p *. two_53))
  else 0 (* p <= 0 or NaN: [chance] never succeeds *)

(* The scan runs in C (rng_stubs.c): the same splitmix64 draws, several
   at a time.  It returns [n] and leaves the state to us: [n + 1] draws
   were consumed on a hit, [n] otherwise ([limit], or [0] when
   [limit <= 0]), and [consumed] steps of [golden_gamma] are one
   multiplication modulo 2^64. *)
external scan : (int64[@unboxed]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "skipit_rng_first_below_byte" "skipit_rng_first_below"
[@@noalloc]

let first_below t ~threshold ~limit =
  let n = scan t.state threshold limit in
  let consumed = if n < limit then n + 1 else n in
  if consumed > 0 then
    t.state <- Int64.add t.state (Int64.mul (Int64.of_int consumed) golden_gamma);
  n

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
