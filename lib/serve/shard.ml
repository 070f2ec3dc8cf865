module S = Skipit_core.System
module Params = Skipit_cache.Params
module Strategy = Skipit_persist.Strategy
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module Latency = Skipit_obs.Latency
module Ds_bench = Skipit_workload.Ds_bench
module Flush_unit = Skipit_l1.Flush_unit

type config = {
  kind : Ops.kind;
  mode : Pctx.mode;
  spec : Ds_bench.strategy_spec;
  process : Arrival.process;
  workload : Workload.t;
  clients : int;
  requests : int;
  batch : int;
  depth : int;
  key_range : int;
  update_pct : int;
  prefill : int;
  seed : int;
}

let validate c =
  let check cond msg = if cond then Error msg else Ok () in
  let ( >>= ) r f = Result.bind r f in
  check (c.clients <= 0) "clients must be positive"
  >>= fun () -> check (c.requests <= 0) "requests must be positive"
  >>= fun () -> check (c.batch <= 0) "batch must be positive"
  >>= fun () -> check (c.depth <= 0) "depth must be positive"
  >>= fun () -> check (c.key_range <= 0) "key-range must be positive"
  >>= fun () -> check (c.update_pct < 0 || c.update_pct > 100) "update-pct must be in [0,100]"
  >>= fun () -> check (c.prefill < 0) "prefill must be non-negative"
  >>= fun () -> Workload.validate c.workload ~key_range:c.key_range
  >>= fun () ->
  check
    (not (Ds_bench.compatible c.kind c.spec))
    (Printf.sprintf "%s is incompatible with %s (word-bit conflict)"
       (Ds_bench.spec_name c.spec) (Ops.kind_name c.kind))

type t = { sys : S.t; strategy : Strategy.t; handle : Ops.handle }

let create ?keep ?shuffle_seed ~params c =
  let sys = S.create (Params.with_skip_it params (Ds_bench.wants_skip_it_hw c.spec)) in
  let strategy = Ds_bench.realize c.spec Skipit_persist.Mem_port.timed (S.allocator sys) in
  let handle =
    Ds_bench.prefill ?keep sys c.kind (Pctx.make strategy c.mode) ~key_range:c.key_range
      ~prefill:c.prefill
      ~seed:(Option.value shuffle_seed ~default:c.seed)
  in
  { sys; strategy; handle }

let schedule c ~rate =
  let draw =
    Workload.draw c.workload ~key_range:c.key_range ~update_pct:c.update_pct
      ~seed:(c.seed + 2)
  in
  Arrival.schedule ~process:c.process ~draw ~rate ~clients:c.clients ~requests:c.requests
    ~key_range:c.key_range ~update_pct:c.update_pct ~seed:(c.seed + 1) ()

let apply pctx (h : Ops.handle) op key =
  match op with
  | Arrival.Insert -> ignore (h.Ops.insert pctx key : bool)
  | Arrival.Delete -> ignore (h.Ops.delete pctx key : bool)
  | Arrival.Contains -> ignore (h.Ops.contains pctx key : bool)

type summary = {
  achieved : float;
  latency : Latency.summary option;
  dequeue_latency : Latency.summary option;
  gap : Latency.gap option;
}

let summarize ~served ~elapsed ~intended ~dequeue =
  let latency = Latency.summarize intended in
  let dequeue_latency = Latency.summarize dequeue in
  {
    achieved = (if elapsed > 0 then float_of_int served *. 1000. /. float_of_int elapsed else 0.);
    latency;
    dequeue_latency;
    gap =
      (match latency, dequeue_latency with
       | Some i, Some r -> Some (Latency.gap ~intended:i ~recorded:r)
       | _ -> None);
  }

let skip_counts sys =
  let dropped = ref 0 and submitted = ref 0 in
  for i = 0 to S.n_cores sys - 1 do
    let fu = Skipit_l1.Dcache.flush_unit (S.dcache sys i) in
    dropped := !dropped + Flush_unit.skip_dropped fu;
    submitted := !submitted + Flush_unit.submitted fu
  done;
  (!dropped, !submitted)
