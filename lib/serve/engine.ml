module S = Skipit_core.System
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module Admission = Skipit_sim.Admission
module Sample = Skipit_sim.Stats.Sample
module Trace = Skipit_obs.Trace
module Latency = Skipit_obs.Latency
module Attr = Skipit_obs.Attribution
module Metrics = Skipit_obs.Metrics
module Pool = Skipit_par.Pool
module Ds_bench = Skipit_workload.Ds_bench

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
  cores : int;
  key_range : int;
  update_pct : int;
  prefill : int;
  seed : int;
  telemetry : bool;
  window : int;
}

let default =
  {
    kind = Ops.Hash_set;
    mode = Pctx.Automatic;
    spec = Ds_bench.Skipit;
    process = Arrival.Poisson;
    workload = Workload.default;
    clients = 16;
    requests = 2000;
    batch = 8;
    depth = 64;
    cores = 1;
    key_range = 1024;
    update_pct = 20;
    prefill = 512;
    seed = 11;
    telemetry = false;
    window = Metrics.default_window;
  }

let shard_config cfg =
  {
    Shard.kind = cfg.kind;
    mode = cfg.mode;
    spec = cfg.spec;
    process = cfg.process;
    workload = cfg.workload;
    clients = cfg.clients;
    requests = cfg.requests;
    batch = cfg.batch;
    depth = cfg.depth;
    key_range = cfg.key_range;
    update_pct = cfg.update_pct;
    prefill = cfg.prefill;
    seed = cfg.seed;
  }

let validate cfg =
  Result.bind (Shard.validate (shard_config cfg)) (fun () ->
    if cfg.cores <= 0 then Error "cores must be positive"
    else if cfg.window <= 0 then Error "window must be positive"
    else Ok ())

type point = {
  offered : float;
  achieved : float;
  served : int;
  shed : int;
  n : int;
  latency : Latency.summary option;
  dequeue_latency : Latency.summary option;
  gap : Latency.gap option;
  elapsed : int;
  epochs : int;
  flushes : int;
  deferred : int;
  passthrough : int;
  fences : int;
  leaked : int;
  attribution : (string * int) list;
  attr_requests : int;
  attr_trimmed : int;
  attr_conserved : bool;
  metrics : Metrics.t option;
  skip_dropped : int;
  wb_submitted : int;
}

let skip_hit_rate p =
  let total = p.skip_dropped + p.wb_submitted in
  if total = 0 then 0. else float_of_int p.skip_dropped /. float_of_int total

let shed_fraction p = if p.n = 0 then 0. else float_of_int p.shed /. float_of_int p.n

let run ?(params = Params.boom_default) cfg ~rate =
  (match validate cfg with
   | Ok () -> ()
   | Error e -> invalid_arg ("Serve.Engine.run: " ^ e));
  let sc = shard_config cfg in
  (* Build + prefill (untimed relative to the serving window). *)
  let { Shard.sys; strategy; handle = h } =
    Shard.create ~params:(Params.with_cores params cfg.cores) sc
  in
  (* The serving window opens when the prefill quiesces; arrival offsets are
     relative to it. *)
  let t0 = S.max_clock sys in
  let sched = Shard.schedule sc ~rate in
  let n = Array.length sched in
  let arrival i = t0 + sched.(i).Arrival.arrival in
  let adm = Admission.create ~capacity:cfg.depth in
  let batchers =
    Array.init cfg.cores (fun _ ->
      Batcher.create ~group:(cfg.batch > 1) ~strategy ~mode:cfg.mode ())
  in
  (* An epoch can never usefully exceed the waiting room: its members all
     occupy admission slots until the commit fence. *)
  let batch = max 1 (min cfg.batch cfg.depth) in
  let cursor = ref 0 in
  let completions = Array.make n (-1) in
  (* Admitted request indices in admission order; released (in FIFO order,
     as Admission requires) once their epoch has committed. *)
  let admitted_fifo = Queue.create () in
  let shed = ref 0 in
  let served = ref 0 in
  let lat = Sample.create () in
  let dlat = Sample.create () in
  let t_end = ref t0 in
  (* Telemetry sinks are installed for the serving window only (the prefill
     is untimed) and live on this domain, so a sweep's pool jobs never share
     state and output is byte-identical at any --jobs width.  Recording
     never alters simulated timing: cycles are identical on/off. *)
  let attr = if cfg.telemetry then Some (Attr.start ~cores:cfg.cores ~keep_records:true ()) else None in
  let mx = if cfg.telemetry then Some (Metrics.start ~window:cfg.window ()) else None in
  let drain () =
    let continue = ref true in
    while !continue do
      match Queue.peek_opt admitted_fifo with
      | Some j when completions.(j) >= 0 ->
        ignore (Queue.pop admitted_fifo);
        Admission.release adm ~at:completions.(j);
        (match mx with
         | Some m -> Metrics.occupancy_free m "serve.admission" ~at:completions.(j)
         | None -> ())
      | _ -> continue := false
    done
  in
  let worker core =
    {
      T.core;
      body =
        (fun () ->
          let b = batchers.(core) in
          let members = ref [] in
          let n_members = ref 0 in
          let commit_epoch () =
            if !n_members > 0 then begin
              let commit_start = T.now () in
              Batcher.commit b;
              let t = T.now () in
              if t > !t_end then t_end := t;
              List.iter
                (fun (i, rid, frame, issued) ->
                  completions.(i) <- t;
                  Sample.add_int lat (t - arrival i);
                  Sample.add_int dlat (t - issued);
                  Trace.req_end ~at:t rid;
                  (match frame, attr with
                   | Some fr, Some a ->
                     (* The wait for the epoch to close, then the shared
                        commit work (flush replay + fence), charged to every
                        member; the frame closes exactly at the latency
                        sample's completion stamp, so stage cycles sum to
                        the recorded span. *)
                     Attr.mark_frame fr Attr.Commit_wait ~at:commit_start;
                     Attr.mark_frame fr Attr.Fence ~at:t;
                     Attr.close a fr ~at:t
                   | _ -> ());
                  (match mx with
                   | Some m ->
                     Metrics.counter_incr m "serve.served" ~at:t;
                     Metrics.histogram_observe m "serve.latency" ~at:t (t - arrival i)
                   | None -> ());
                  incr served)
                (List.rev !members);
              members := [];
              n_members := 0;
              drain ()
            end
          in
          let rec loop () =
            let i = !cursor in
            if i >= n then commit_epoch ()
            else begin
              let at = arrival i in
              let now = T.now () in
              if at > now && !n_members > 0 then begin
                (* No request is waiting: close the epoch rather than
                   parking admitted work behind a future arrival. *)
                commit_epoch ();
                loop ()
              end
              else begin
                incr cursor;
                if at > now then T.delay (at - now);
                drain ();
                (* Shed iff the waiting room was full at the arrival
                   instant. *)
                if Admission.peek_entry adm ~now:at > at then begin
                  incr shed;
                  (match mx with
                   | Some m -> Metrics.counter_incr m "serve.shed" ~at
                   | None -> ());
                  (* Backpressure signal: free this worker's own slots
                     before the next claim. *)
                  commit_epoch ()
                end
                else begin
                  ignore (Admission.admit adm ~now:at : int);
                  Queue.add i admitted_fifo;
                  let r = sched.(i) in
                  let rid =
                    Trace.req_start ~at ~cls:Trace.Cls_serve ~core ~addr:r.Arrival.key
                  in
                  (* The frame opens at the *intended* arrival, so queueing
                     behind a backlogged server (coordinated omission) is
                     charged to Adm_wait rather than silently dropped. *)
                  let issued = T.now () in
                  let frame =
                    match attr with
                    | Some _ ->
                      let fr = Attr.frame ~at in
                      Attr.mark_frame fr Attr.Adm_wait ~at:issued;
                      Attr.bind ~core (Some fr);
                      Some fr
                    | None -> None
                  in
                  (match mx with
                   | Some m ->
                     Metrics.counter_incr m "serve.admitted" ~at;
                     Metrics.occupancy_alloc m "serve.admission" ~at
                   | None -> ());
                  Shard.apply (Batcher.pctx b) h r.Arrival.op r.Arrival.key;
                  if attr <> None then Attr.bind ~core None;
                  members := (i, rid, frame, issued) :: !members;
                  incr n_members;
                  if !n_members >= batch then commit_epoch ()
                end;
                loop ()
              end
            end
          in
          loop ());
    }
  in
  ignore (T.run sys (List.init cfg.cores worker));
  drain ();
  (if cfg.telemetry then begin
     ignore (Attr.stop () : Attr.t option);
     Metrics.stop ()
   end);
  let elapsed = !t_end - t0 in
  let epochs = ref 0 and flushes = ref 0 and deferred = ref 0 in
  let passthrough = ref 0 and fences = ref 0 in
  Array.iter
    (fun b ->
      let s = Batcher.stats b in
      epochs := !epochs + s.Batcher.epochs;
      flushes := !flushes + s.Batcher.flushes;
      deferred := !deferred + s.Batcher.deferred;
      passthrough := !passthrough + s.Batcher.passthrough;
      fences := !fences + s.Batcher.fences)
    batchers;
  (* Per-strategy skip effectiveness over the whole run (prefill included,
     like every other hardware counter). *)
  let skip_dropped, wb_submitted = Shard.skip_counts sys in
  let sum = Shard.summarize ~served:!served ~elapsed ~intended:lat ~dequeue:dlat in
  {
    offered = rate;
    achieved = sum.Shard.achieved;
    served = !served;
    shed = !shed;
    n;
    latency = sum.Shard.latency;
    dequeue_latency = sum.Shard.dequeue_latency;
    gap = sum.Shard.gap;
    elapsed;
    epochs = !epochs;
    flushes = !flushes;
    deferred = !deferred;
    passthrough = !passthrough;
    fences = !fences;
    leaked = Admission.occupants adm;
    attribution = (match attr with Some a -> Attr.totals a | None -> []);
    attr_requests = (match attr with Some a -> Attr.requests a | None -> 0);
    attr_trimmed = (match attr with Some a -> Attr.trimmed a | None -> 0);
    attr_conserved = (match attr with Some a -> Attr.conserved a | None -> true);
    metrics = mx;
    skip_dropped;
    wb_submitted;
  }

let sweep ?params ?pool cfg ~rates =
  Pool.map pool (fun rate -> run ?params cfg ~rate) rates
