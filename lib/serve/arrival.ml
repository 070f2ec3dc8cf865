module Rng = Skipit_sim.Rng

type process =
  | Poisson
  | Bursty of { on : int; off : int }
  | Phased of { phases : (int * int) list; base : process }
  | Degraded of { windows : (int * int) list; base : process }

let default_bursty = Bursty { on = 2000; off = 6000 }

let rec process_name = function
  | Poisson -> "poisson"
  | Bursty { on; off } -> Printf.sprintf "bursty:%d/%d" on off
  | Phased { phases; base } ->
    Printf.sprintf "phases:%s:%s"
      (String.concat ","
         (List.map (fun (l, m) -> Printf.sprintf "%dx%d" l m) phases))
      (process_name base)
  | Degraded { windows; base } ->
    Printf.sprintf "degraded:%s:%s"
      (String.concat ","
         (List.map (fun (s, e) -> Printf.sprintf "%d-%d" s e) windows))
      (process_name base)

(* Fault windows must be well-formed for the gap walk to terminate:
   non-empty, each window non-empty, sorted, disjoint. *)
let valid_windows windows =
  windows <> []
  && fst (List.hd windows) >= 0
  && List.for_all (fun (s, e) -> e > s) windows
  && fst (List.fold_left (fun (ok, prev) (s, e) -> (ok && s >= prev, e)) (true, 0) windows)

(* A phase list must have positive lengths and at least one phase with a
   non-zero rate multiplier, or the gap walk would never find an active
   cycle. *)
let valid_phases phases =
  phases <> []
  && List.for_all (fun (l, m) -> l > 0 && m >= 0) phases
  && List.exists (fun (_, m) -> m > 0) phases

(* "A<sep>B" with both halves integers. *)
let int_pair sep s =
  match String.split_on_char sep s with
  | [ a; b ] -> (
    match int_of_string_opt a, int_of_string_opt b with
    | Some a, Some b -> Some (a, b)
    | _ -> None)
  | _ -> None

(* A comma-separated list of which every element parses. *)
let parse_list f s =
  let parts = String.split_on_char ',' s in
  let xs = List.filter_map f parts in
  if List.length xs = List.length parts then Some xs else None

(* Split at the first ':'. *)
let split_colon s =
  Option.map
    (fun i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)))
    (String.index_opt s ':')

let rec process_of_name s =
  match s with
  | "poisson" -> Some Poisson
  | "bursty" -> Some default_bursty
  | _ -> (
    match split_colon s with
    | Some ("bursty", rest) -> (
      match int_pair '/' rest with
      | Some (on, off) when on > 0 && off >= 0 -> Some (Bursty { on; off })
      | _ -> None)
    | Some ("phases", rest) -> (
      (* phases:LENxMILLI[,LENxMILLI]:BASE — segment lengths in cycles,
         rate multipliers in thousandths (integers, so the name
         round-trips without float formatting).  BASE must be a plain
         poisson/bursty process. *)
      match Option.map (fun (p, b) -> (parse_list (int_pair 'x') p, process_of_name b))
              (split_colon rest) with
      | Some (Some phases, Some ((Poisson | Bursty _) as base)) when valid_phases phases ->
        Some (Phased { phases; base })
      | _ -> None)
    | Some ("degraded", rest) -> (
      (* degraded:S-E[,S-E]:BASE — the window list never contains ':', so
         the first ':' after the prefix splits windows from the base name
         (which may itself contain ':'). *)
      match Option.map (fun (w, b) -> (parse_list (int_pair '-') w, process_of_name b))
              (split_colon rest) with
      | Some (Some windows, Some base) when valid_windows windows -> (
        match base with Degraded _ -> None | _ -> Some (Degraded { windows; base }))
      | _ -> None)
    | _ -> None)

type op = Insert | Delete | Contains

let op_name = function Insert -> "insert" | Delete -> "delete" | Contains -> "contains"

type request = {
  arrival : int;
  client : int;
  seq : int;
  op : op;
  key : int;
}

type draw = Rng.t -> at:int -> op * int

(* The historical inline op/key draw, kept as the default so every
   schedule produced before the workload layer existed is byte-identical:
   one [Rng.int _ 100] for the op class, a [Rng.bool] only for updates,
   then one [Rng.int _ key_range] for the key. *)
let uniform_draw ~key_range ~update_pct : draw =
 fun rng ~at:_ ->
  let r = Rng.int rng 100 in
  let op =
    if r < update_pct then if Rng.bool rng then Insert else Delete
    else Contains
  in
  let key = 1 + Rng.int rng key_range in
  (op, key)

(* Skip [t] forward past every cycle in which no arrival can occur: the off
   phases of a bursty process, and any degraded (fault) window.  Each
   recursion strictly advances [t], and the window list is finite, so the
   walk terminates. *)
let rec skip_gaps process t =
  match process with
  | Poisson -> t
  | Bursty { on; off } ->
    let period = on + off in
    if t mod period < on then t else (t / period + 1) * period
  | Phased { phases; base } -> (
    let t' = skip_gaps base t in
    let period = List.fold_left (fun a (l, _) -> a + l) 0 phases in
    let pos = t' mod period in
    (* Find the segment containing [pos]; a zero-multiplier segment is a
       gap, so jump to its end and rewalk the whole process from there. *)
    let rec seg start = function
      | [] -> t' (* unreachable: pos < period *)
      | (l, m) :: rest ->
        if pos < start + l then
          if m > 0 then t' else skip_gaps process (t' - pos + start + l)
        else seg (start + l) rest
    in
    seg 0 phases)
  | Degraded { windows; base } -> (
    let t' = skip_gaps base t in
    match List.find_opt (fun (s, e) -> t' >= s && t' < e) windows with
    | Some (_, e) -> skip_gaps process e
    | None -> t')

(* The on-phase rate boost that keeps long-run offered load at the
   configured rate.  Degraded windows deliberately do NOT boost: a fault
   window erases the load that would have arrived during it (clients gone
   dark), it does not defer it.  Phased segments DO normalise — a diurnal
   trough defers load to the peaks, so the per-cycle base probability is
   scaled by period / Σ(len·mult) and each active cycle then multiplies by
   its own segment multiplier ({!mult_milli_at}), keeping the long-run
   offered load at [rate]. *)
let rec rate_boost = function
  | Poisson -> 1.
  | Bursty { on; off } -> float_of_int (on + off) /. float_of_int on
  | Phased { phases; base } ->
    let period = List.fold_left (fun a (l, _) -> a + l) 0 phases in
    let weight = List.fold_left (fun a (l, m) -> a + (l * m)) 0 phases in
    float_of_int period *. 1000. /. float_of_int weight *. rate_boost base
  | Degraded { base; _ } -> rate_boost base

(* Diurnal rate multiplier (in thousandths) in force at cycle [t]; 1000
   everywhere except inside a [Phased] segment. *)
let mult_milli_at process t =
  let rec go = function
    | Poisson | Bursty _ -> 1000
    | Degraded { base; _ } -> go base
    | Phased { phases; base } ->
      let period = List.fold_left (fun a (l, _) -> a + l) 0 phases in
      let pos = t mod period in
      let rec seg start = function
        | [] -> 1000 (* unreachable: pos < period *)
        | (l, m) :: rest -> if pos < start + l then m else seg (start + l) rest
      in
      seg 0 phases * go base / 1000
  in
  go process

(* Per-cycle trial probability at cycle [t].  The [1000] fast path keeps
   non-phased processes bit-identical to the historical fixed-probability
   walk (p *. 1.0 is exact, but not even that is evaluated). *)
let p_at process p t =
  match mult_milli_at process t with
  | 1000 -> p
  | m -> p *. (float_of_int m /. 1000.)

(* Wrap [process] in a diurnal phase schedule at the right nesting depth:
   phases sit below degraded windows (an outage erases whatever the
   schedule would have offered) and above the base poisson/bursty shape. *)
let with_phases process phases =
  if not (valid_phases phases) then None
  else
    match process with
    | (Poisson | Bursty _) as base -> Some (Phased { phases; base })
    | Phased _ -> None
    | Degraded { windows; base } -> (
      match base with
      | (Poisson | Bursty _) as b ->
        Some (Degraded { windows; base = Phased { phases; base = b } })
      | _ -> None)

(* CLI-facing phase spec: "LEN:MULT[,LEN:MULT]" with MULT a decimal
   multiplier ("36000:0.25,12000:2.5").  Parsed once into integer
   thousandths, so everything downstream stays float-format-free. *)
let phases_of_spec spec =
  let seg s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      match int_of_string_opt a, float_of_string_opt b with
      | Some l, Some m when m >= 0. && m <= 1000. ->
        Some (l, int_of_float ((m *. 1000.) +. 0.5))
      | _ -> None)
    | _ -> None
  in
  match parse_list seg spec with
  | Some phases when valid_phases phases -> Some phases
  | _ -> None

(* Exclusive end of the run that starts at the active cycle [t]: every
   cycle in [\[t, run_end)] is active ([skip_gaps] is the identity there)
   and has the same rate multiplier, so one trial probability covers the
   whole run. *)
let rec run_end process t =
  match process with
  | Poisson -> max_int
  | Bursty { on; off } ->
    let period = on + off in
    (t / period * period) + on
  | Phased { phases; base } ->
    let period = List.fold_left (fun a (l, _) -> a + l) 0 phases in
    Int.min (segment_end (t - (t mod period)) t phases) (run_end base t)
  | Degraded { windows; base } -> Int.min (next_window t windows) (run_end base t)

and segment_end start t = function
  | [] -> max_int (* unreachable: t - start < period *)
  | (l, _) :: rest -> if t < start + l then start + l else segment_end (start + l) t rest

and next_window t = function
  | [] -> max_int
  | (s, _) :: rest -> if s > t then s else next_window t rest

(* The trial cap bounds the walk when [p] is tiny: after [trial_cap + 1]
   failed trials the walk stops at the last cycle tried, which shows up as
   one very late arrival rather than an unbounded loop. *)
let trial_cap = 10_000_000

(* One Bernoulli trial per active cycle, drawn a run at a time: within a
   run every cycle has the same probability, so [Rng.first_below] consumes
   exactly the draws a cycle-by-cycle [Rng.chance] loop would, and a miss
   jumps to the next run with [skip_gaps].  [budget] is the number of
   trials left under the cap. *)
let rec walk process rng p t budget =
  let t = skip_gaps process t in
  let len = Int.min (run_end process t - t) budget in
  let threshold = Rng.chance_threshold (p_at process p t) in
  let n = Rng.first_below rng ~threshold ~limit:len in
  if n < len then t + n
  else if len = budget then t + len - 1
  else walk process rng p (t + len) (budget - len)

let next_arrival process rng ~p ~from = walk process rng p from (trial_cap + 1)

(* Reject malformed process nestings before any rng state is consumed.
   Phases sit strictly between degraded windows and the poisson/bursty
   base; neither wrapper nests with itself. *)
let rec validate_process = function
  | Poisson | Bursty _ -> ()
  | Phased { phases; base } ->
    if not (valid_phases phases) then
      invalid_arg
        "Arrival.schedule: phases need positive lengths and a non-zero multiplier";
    (match base with
     | Poisson | Bursty _ -> validate_process base
     | _ -> invalid_arg "Arrival.schedule: phased base must be poisson or bursty")
  | Degraded { windows; base } ->
    if not (valid_windows windows) then
      invalid_arg "Arrival.schedule: degraded windows must be sorted, disjoint, non-empty";
    (match base with
     | Degraded _ -> invalid_arg "Arrival.schedule: degraded process cannot nest"
     | _ -> validate_process base)

(* One Bernoulli stream at the full offered rate, with the owning client
   drawn uniformly per arrival.  Thinning a Bernoulli stream uniformly
   gives each client its own stream of rate [rate / clients]; bursty and
   diurnal phases are global, so every client shares their alignment and
   the on-phase boost applies once.  The walk costs O(requests / p) trials
   whatever the population.  Compared with one independent stream per
   client, at most one request arrives per cycle, a difference of order
   p^2 per cycle. *)
let schedule ~process ~draw ~rate ~clients ~requests ~key_range ~update_pct:_ ~seed () =
  if rate <= 0. then invalid_arg "Arrival.schedule: rate must be positive";
  if clients <= 0 then invalid_arg "Arrival.schedule: clients must be positive";
  if key_range <= 0 then invalid_arg "Arrival.schedule: key_range must be positive";
  validate_process process;
  let p = Float.min 1. (rate /. 1000. *. rate_boost process) in
  let rng = Rng.create ~seed in
  let counts = Array.make clients 0 in
  let clock = ref (-1) in
  Array.init requests (fun _ ->
    let t = next_arrival process rng ~p ~from:(!clock + 1) in
    clock := t;
    let client = Rng.int rng clients in
    let op, key = draw rng ~at:t in
    let seq = counts.(client) in
    counts.(client) <- seq + 1;
    { arrival = t; client; seq; op; key })
