module Rng = Skipit_sim.Rng

type keys = Uniform | Zipf of { theta_milli : int }
type t = { keys : keys; churn : int option }

let default = { keys = Uniform; churn = None }
let default_zipf_theta_milli = 990
let max_zipf_range = 1 lsl 22
let max_theta_milli = 4000

(* ------------------------------------------------------------------ *)
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
  if x < 1 then invalid_arg "Workload.log2_q: positive argument required";
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

let zipf_cdf ~n ~theta_milli =
  if n < 1 then invalid_arg "Workload.zipf_cdf: n must be positive";
  if n > max_zipf_range then invalid_arg "Workload.zipf_cdf: n too large";
  if theta_milli < 0 || theta_milli > max_theta_milli then
    invalid_arg "Workload.zipf_cdf: theta out of range";
  let theta_q = theta_milli * one / 1000 in
  let cum = Array.make n 0 in
  let acc = ref 0 in
  for k = 0 to n - 1 do
    acc := !acc + pow_neg_q ~theta_q (k + 1);
    cum.(k) <- !acc
  done;
  cum

(* Smallest rank with cum.(rank) > u; u in [0, total). *)
let rank_of cum u =
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Names: integer-thousandths theta formatting so names round-trip with
   no float printing involved. *)

let theta_string m =
  let whole = m / 1000 and frac = m mod 1000 in
  if frac = 0 then string_of_int whole
  else begin
    let s = Printf.sprintf "%03d" frac in
    let len = ref 3 in
    while s.[!len - 1] = '0' do decr len done;
    Printf.sprintf "%d.%s" whole (String.sub s 0 !len)
  end

(* The whole part is range-checked before it is scaled, so a long digit
   run can neither wrap [w * 1000] nor overflow [int_of_string]. *)
let theta_of_string s =
  let digits t = t <> "" && String.for_all (fun c -> c >= '0' && c <= '9') t in
  let whole w =
    match int_of_string_opt w with
    | Some w when w <= max_theta_milli / 1000 -> Some (w * 1000)
    | _ -> None
  in
  let m =
    match String.split_on_char '.' s with
    | [ w ] when digits w -> whole w
    | [ w; f ] when digits w && digits f && String.length f <= 3 ->
      let scale = match String.length f with 1 -> 100 | 2 -> 10 | _ -> 1 in
      Option.map (fun w -> w + (int_of_string f * scale)) (whole w)
    | _ -> None
  in
  Option.bind m (fun m -> if m <= max_theta_milli then Some m else None)

let keys_name = function
  | Uniform -> "uniform"
  | Zipf { theta_milli } -> "zipf:" ^ theta_string theta_milli

let keys_of_name s =
  match s with
  | "uniform" -> Some Uniform
  | "zipf" -> Some (Zipf { theta_milli = default_zipf_theta_milli })
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "zipf" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      Option.map (fun m -> Zipf { theta_milli = m }) (theta_of_string rest))
    | _ -> None)

let name t =
  keys_name t.keys
  ^ match t.churn with None -> "" | Some p -> Printf.sprintf "+churn:%d" p

let validate t ~key_range =
  match t.keys, t.churn with
  | _, Some p when p <= 0 -> Error "churn period must be positive"
  | Uniform, Some _ -> Error "churn requires zipf keys (uniform has no hot set)"
  | Uniform, None -> Ok ()
  | Zipf { theta_milli }, _ ->
    if theta_milli < 0 || theta_milli > max_theta_milli then
      Error "zipf theta must be in [0, 4.0]"
    else if key_range > max_zipf_range then
      Error
        (Printf.sprintf "zipf key_range capped at %d (CDF table size)"
           max_zipf_range)
    else Ok ()

(* ------------------------------------------------------------------ *)

let draw t ~key_range ~update_pct ~seed : Arrival.draw =
  (match validate t ~key_range with
   | Ok () -> ()
   | Error e -> invalid_arg ("Workload.draw: " ^ e));
  match t.keys with
  | Uniform -> Arrival.uniform_draw ~key_range ~update_pct
  | Zipf { theta_milli } ->
    let cum = zipf_cdf ~n:key_range ~theta_milli in
    let total = cum.(key_range - 1) in
    (* Rank->key indirection: a seeded permutation hides the rank order
       (rank 0 is not literally key 1), and churn rotates the hot set by
       a per-epoch seeded offset — both pure functions of (seed, at). *)
    let perm = Array.init key_range (fun i -> i + 1) in
    Rng.shuffle (Rng.create ~seed) perm;
    let churn_seed = seed + 0x5bd1e995 in
    let last_epoch = ref (-1) and last_offset = ref 0 in
    let offset_at at =
      match t.churn with
      | None -> 0
      | Some period ->
        let epoch = at / period in
        if epoch <> !last_epoch then begin
          last_epoch := epoch;
          last_offset := Rng.int (Rng.create ~seed:(churn_seed + epoch)) key_range
        end;
        !last_offset
    in
    fun rng ~at ->
      let r = Rng.int rng 100 in
      let op =
        if r < update_pct then
          if Rng.bool rng then Arrival.Insert else Arrival.Delete
        else Arrival.Contains
      in
      let u = Rng.int rng total in
      let rank = rank_of cum u in
      let key = perm.((rank + offset_at at) mod key_range) in
      (op, key)

let mix_of_spec spec =
  match String.split_on_char ':' spec with
  | [ r; w ] -> (
    match int_of_string_opt r, int_of_string_opt w with
    | Some r, Some w when r >= 0 && w >= 0 && r + w > 0 && max r w <= max_int / 200 ->
      (* update_pct = write share of the mix, rounded to nearest; the
         bound on the parts keeps [w * 100] and [r + w] from wrapping. *)
      Some (((w * 100) + ((r + w) / 2)) / (r + w))
    | _ -> None)
  | _ -> None
