module S = Skipit_core.System
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Strategy = Skipit_persist.Strategy
module Pctx = Skipit_persist.Pctx
module Mem_port = Skipit_persist.Mem_port
module Ops = Skipit_pds.Set_ops
module Rng = Skipit_sim.Rng
module Zipf = Skipit_sim.Zipf

type strategy_spec =
  | Plain
  | Flit_adjacent
  | Flit_hash of int
  | Link_and_persist
  | Skipit
  | Baseline

let spec_name = function
  | Plain -> "plain"
  | Flit_adjacent -> "flit-adjacent"
  | Flit_hash n -> Printf.sprintf "flit-hash/%d" n
  | Link_and_persist -> "link-and-persist"
  | Skipit -> "skip-it"
  | Baseline -> "baseline"

let default_specs =
  [ Plain; Flit_adjacent; Flit_hash 65536; Link_and_persist; Skipit; Baseline ]

let spec_of_name s =
  match s with
  | "plain" -> Some Plain
  | "flit-adjacent" -> Some Flit_adjacent
  | "flit-hash" -> Some (Flit_hash 65536)
  | "link-and-persist" -> Some Link_and_persist
  | "skip-it" -> Some Skipit
  | "baseline" -> Some Baseline
  | _ ->
    (match String.index_opt s '/' with
     | Some i when String.sub s 0 i = "flit-hash" ->
       let rest = String.sub s (i + 1) (String.length s - i - 1) in
       (match int_of_string_opt rest with
        | Some n when n > 0 -> Some (Flit_hash n)
        | Some _ | None -> None)
     | _ -> None)

let realize spec port alloc =
  match spec with
  | Plain -> Strategy.plain ~port ()
  | Flit_adjacent -> Strategy.flit_adjacent ~port ()
  | Flit_hash slots ->
    let table_base = Skipit_mem.Allocator.alloc alloc ~align:64 (slots * 8) in
    Strategy.flit_hash ~port ~table_base ~table_slots:slots ()
  | Link_and_persist -> Strategy.link_and_persist ~port ()
  | Skipit -> Strategy.skipit_hw ~port ()
  | Baseline -> Strategy.none ~port ()

let wants_skip_it_hw = function
  | Skipit -> true
  | Plain | Flit_adjacent | Flit_hash _ | Link_and_persist | Baseline -> false

type workload = {
  threads : int;
  key_range : int;
  update_pct : int;
  prefill : int;
  window : int;
  seed : int;
  skew_milli : int;
}

(* Sized so the structures pressure the 32 KiB L1 (and, with FliT's doubled
   footprint or separate counter table, the 512 KiB L2) the way the paper's
   544 KiB total cache is pressured (§7.4). *)
let default_workload =
  {
    threads = 2;
    key_range = 2048;
    update_pct = 5;
    prefill = 1024;
    window = 500_000;
    seed = 7;
    skew_milli = 0;
  }

(* The one word-bit rule: Link-and-Persist marks a bit inside the data
   word, which clashes with a structure that owns spare word bits. *)
let compatible kind = function
  | Link_and_persist -> not (Ops.uses_word_bits kind)
  | Plain | Flit_adjacent | Flit_hash _ | Skipit | Baseline -> true

let prefill_keys ~key_range ~prefill =
  if prefill = 0 then [||]
  else begin
    let step = max 1 (key_range / prefill) in
    Array.init (key_range / step) (fun i -> 1 + (i * step))
  end

let prefill ?(keep = fun _ -> true) sys kind pctx ~key_range ~prefill ~seed =
  T.run_task sys (fun () ->
    let h = Ops.create_sized kind ~buckets:(max 16 (key_range / 4)) pctx (S.allocator sys) in
    (* Shuffled: sorted insertion would degenerate the external BST into a
       vine. *)
    let keys = prefill_keys ~key_range ~prefill in
    Rng.shuffle (Rng.create ~seed) keys;
    Array.iter (fun k -> if keep k then ignore (h.Ops.insert pctx k)) keys;
    h)

let throughput ?(params = Params.boom_default) ~kind ~mode ~spec w =
  if not (compatible kind spec) then nan
  else begin
    let params =
      Params.with_skip_it (Params.with_cores params w.threads) (wants_skip_it_hw spec)
    in
    let sys = S.create params in
    let strategy = realize spec Mem_port.timed (S.allocator sys) in
    let pctx = Pctx.make strategy mode in
    let h =
      prefill sys kind pctx ~key_range:w.key_range ~prefill:w.prefill ~seed:w.seed
    in
    let ops_done = Array.make w.threads 0 in
    let zipf =
      if w.skew_milli > 0 then Some (Zipf.cdf ~n:w.key_range ~theta_milli:w.skew_milli)
      else None
    in
    let worker core =
      {
        T.core;
        body =
          (fun () ->
            let rng = Rng.create ~seed:(w.seed + (core * 7919)) in
            let stop_at = T.now () + w.window in
            let n = ref 0 in
            while T.now () < stop_at do
              let key =
                match zipf with
                | Some cdf -> 1 + Zipf.draw cdf rng
                | None -> 1 + Rng.int rng w.key_range
              in
              let r = Rng.int rng 100 in
              (if r < w.update_pct then
                 if Rng.bool rng then ignore (h.Ops.insert pctx key)
                 else ignore (h.Ops.delete pctx key)
               else ignore (h.Ops.contains pctx key));
              incr n
            done;
            ops_done.(core) <- !n);
      }
    in
    ignore (T.run sys (List.init w.threads worker));
    let total = Array.fold_left ( + ) 0 ops_done in
    float_of_int total *. 1000. /. float_of_int w.window
  end
