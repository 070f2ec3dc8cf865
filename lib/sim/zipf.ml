let max_n = 1 lsl 22
let max_theta_milli = 4000

(* Q30 fixed-point kernel.  Everything below is integer-only: the same
   inputs give the same bits on every host, which is what lets the
   workload-determinism CI step diff serve output across machines.  All
   intermediates fit OCaml's 63-bit native int: the largest products are
   (2^31)^2 = 2^62 in [exp2_frac]/[log2_q] and 2^32 * 2^30 = 2^62 in
   [mul_q]. *)

let q = 30
let one = 1 lsl q

(* Integer square root: largest r with r * r <= n.  Valid for n < 2^62;
   the initial bit is the largest power of four <= the largest input we
   feed it ((2 * one) lsl q = 2^61). *)
let isqrt n0 =
  let n = ref n0 and res = ref 0 in
  let bit = ref (1 lsl 60) in
  while !bit > n0 do bit := !bit lsr 2 done;
  while !bit <> 0 do
    (if !n >= !res + !bit then begin
       n := !n - (!res + !bit);
       res := (!res lsr 1) + !bit
     end else res := !res lsr 1);
    bit := !bit lsr 2
  done;
  !res

(* exp2_consts.(i) = 2^(2^-i) in Q30, built by repeated integer square
   roots of 2.0 — no libm. *)
let exp2_consts =
  let c = Array.make (q + 1) 0 in
  c.(0) <- 2 * one;
  for i = 1 to q do
    c.(i) <- isqrt (c.(i - 1) lsl q)
  done;
  c

(* 2^(f / 2^30) for f in [0, 2^30): multiply out the constants for the
   set bits of f.  Result in [one, 2 * one). *)
let exp2_frac f =
  let r = ref one in
  for i = 1 to q do
    if f land (one lsr i) <> 0 then r := (!r * exp2_consts.(i)) asr q
  done;
  !r

(* log2 of a positive integer in Q30: integer part from the MSB index,
   fractional bits by 30 rounds of mantissa squaring. *)
let log2_q x =
  if x < 1 then invalid_arg "Zipf.log2_q: positive argument required";
  let e = ref 0 in
  let v = ref x in
  while !v > 1 do
    incr e;
    v := !v lsr 1
  done;
  let m = ref (if !e <= q then x lsl (q - !e) else x asr (!e - q)) in
  let frac = ref 0 in
  for i = 1 to q do
    (* NB: [lsl]/[asr] bind tighter than [*] in OCaml — the parens here
       (and in [exp2_frac]/[mul_q]) are load-bearing. *)
    m := (!m * !m) asr q;
    if !m >= 2 * one then begin
      m := !m asr 1;
      frac := !frac lor (one lsr i)
    end
  done;
  (!e lsl q) lor !frac

(* (a * b) >> 30 without overflowing: split b into Q30 integer and
   fraction parts.  Safe for a <= 2^32 (theta <= 4.0). *)
let mul_q a b = (a * (b asr q)) + ((a * (b land (one - 1))) asr q)

(* x^(-theta) in Q30 via exp2(-theta * log2 x); floored at 1 so every
   key keeps non-zero probability mass even deep in the tail. *)
let pow_neg_q ~theta_q x =
  if x = 1 || theta_q = 0 then one
  else begin
    let t = mul_q theta_q (log2_q x) in
    let n = t asr q and f = t land (one - 1) in
    let w =
      if f = 0 then if n >= 62 then 0 else one asr n
      else if n >= 61 then 0
      else exp2_frac (one - f) asr (n + 1)
    in
    if w < 1 then 1 else w
  end

let cdf ~n ~theta_milli =
  if n < 1 then invalid_arg "Zipf.cdf: n must be positive";
  if n > max_n then invalid_arg "Zipf.cdf: n too large";
  if theta_milli < 0 || theta_milli > max_theta_milli then
    invalid_arg "Zipf.cdf: theta out of range";
  let theta_q = theta_milli * one / 1000 in
  let cum = Array.make n 0 in
  let acc = ref 0 in
  for k = 0 to n - 1 do
    acc := !acc + pow_neg_q ~theta_q (k + 1);
    cum.(k) <- !acc
  done;
  cum

(* The smallest rank with cum.(rank) > u, for u uniform in [0, total). *)
let draw cum rng =
  let last = Array.length cum - 1 in
  let u = Rng.int rng cum.(last) in
  let lo = ref 0 and hi = ref last in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
