module Rng = Skipit_sim.Rng
module Zipf = Skipit_sim.Zipf

type keys = Uniform | Zipf of { theta_milli : int }
type t = { keys : keys; churn : int option }

let default = { keys = Uniform; churn = None }
let default_zipf_theta_milli = 990

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
    | Some w when w <= Zipf.max_theta_milli / 1000 -> Some (w * 1000)
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
  Option.bind m (fun m -> if m <= Zipf.max_theta_milli then Some m else None)

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
    if theta_milli < 0 || theta_milli > Zipf.max_theta_milli then
      Error "zipf theta must be in [0, 4.0]"
    else if key_range > Zipf.max_n then
      Error
        (Printf.sprintf "zipf key_range capped at %d (CDF table size)"
           Zipf.max_n)
    else Ok ()

(* ------------------------------------------------------------------ *)

let draw t ~key_range ~update_pct ~seed : Arrival.draw =
  (match validate t ~key_range with
   | Ok () -> ()
   | Error e -> invalid_arg ("Workload.draw: " ^ e));
  match t.keys with
  | Uniform -> Arrival.uniform_draw ~key_range ~update_pct
  | Zipf { theta_milli } ->
    let cum = Zipf.cdf ~n:key_range ~theta_milli in
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
      let rank = Zipf.draw cum rng in
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
