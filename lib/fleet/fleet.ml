module S = Skipit_core.System
module T = Skipit_core.Thread
module C = Skipit_core.Config
module Params = Skipit_cache.Params
module Strategy = Skipit_persist.Strategy
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module Rng = Skipit_sim.Rng
module Sample = Skipit_sim.Stats.Sample
module Trace = Skipit_obs.Trace
module Latency = Skipit_obs.Latency
module Pool = Skipit_par.Pool
module Ds_bench = Skipit_workload.Ds_bench
module Arrival = Skipit_serve.Arrival
module Workload = Skipit_serve.Workload
module Batcher = Skipit_serve.Batcher
module Shard = Skipit_serve.Shard
module Invariant = Skipit_audit.Invariant
module Repro_file = Skipit_audit.Repro_file
module Campaign = Skipit_audit.Campaign
module Dlin = Skipit_audit.Dlin
module Recovery = Skipit_audit.Recovery

(* ------------------------------------------------------------------ *)
(* Fault schedules.                                                   *)

type fault = { at : int; shard : int }

type fault_schedule = No_faults | Kill of fault list | Seeded of int

let fault_schedule_name = function
  | No_faults -> "none"
  | Seeded n -> Printf.sprintf "rand:%d" n
  | Kill fs ->
    String.concat "," (List.map (fun f -> Printf.sprintf "%d:%d" f.at f.shard) fs)

let fault_schedule_of_name s =
  match s with
  | "none" | "" -> Some No_faults
  | _ ->
    if String.length s > 5 && String.sub s 0 5 = "rand:" then
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some n when n >= 1 -> Some (Seeded n)
      | _ -> None
    else begin
      let parse_one part =
        match String.split_on_char ':' part with
        | [ a; b ] -> (
          match int_of_string_opt a, int_of_string_opt b with
          | Some at, Some shard when at >= 0 && shard >= 0 -> Some { at; shard }
          | _ -> None)
        | _ -> None
      in
      let parts = String.split_on_char ',' s in
      let fs = List.filter_map parse_one parts in
      if List.length fs = List.length parts && fs <> [] then Some (Kill fs) else None
    end

(* ------------------------------------------------------------------ *)
(* Configuration.                                                     *)

(* Max cycles a shard's epoch stays open short of [batch]; sub-reads per
   multi-get. *)
let linger = 600
let fanout = 4

type config = {
  shards : int;
  replicas : int;
  vnodes : int;
  kind : Ops.kind;
  mode : Pctx.mode;
  spec : Ds_bench.strategy_spec;
  process : Arrival.process;
  workload : Workload.t;
  clients : int;
  requests : int;
  depth : int;
  batch : int;
  retry_max : int;
  backoff : int;
  backoff_cap : int;
  timeout : int;
  fanout_pct : int;
  key_range : int;
  update_pct : int;
  prefill : int;
  seed : int;
  faults : fault_schedule;
  drop_persists : int option;
}

let default =
  {
    shards = 4;
    replicas = 2;
    vnodes = 16;
    kind = Ops.Hash_set;
    mode = Pctx.Automatic;
    spec = Ds_bench.Skipit;
    process = Arrival.Poisson;
    workload = Workload.default;
    clients = 1024;
    requests = 2000;
    depth = 48;
    batch = 8;
    retry_max = 5;
    backoff = 200;
    backoff_cap = 3200;
    timeout = 400;
    fanout_pct = 10;
    key_range = 1024;
    update_pct = 20;
    prefill = 512;
    seed = 11;
    faults = No_faults;
    drop_persists = None;
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
  let check cond msg = if cond then Error msg else Ok () in
  let ( >>= ) r f = Result.bind r f in
  check (cfg.shards <= 0) "shards must be positive"
  >>= fun () -> check (cfg.replicas <= 0 || cfg.replicas > cfg.shards)
                  "replicas must be in [1, shards]"
  >>= fun () -> check (cfg.vnodes <= 0) "vnodes must be positive"
  >>= fun () -> Shard.validate (shard_config cfg)
  >>= fun () -> check (cfg.retry_max < 0) "retry-max must be non-negative"
  >>= fun () -> check (cfg.backoff <= 0) "backoff must be positive"
  >>= fun () -> check (cfg.backoff_cap < cfg.backoff) "backoff-cap must be >= backoff"
  >>= fun () -> check (cfg.timeout <= 0) "timeout must be positive"
  >>= fun () -> check (cfg.fanout_pct < 0 || cfg.fanout_pct > 100)
                  "fanout-pct must be in [0,100]"
  >>= fun () ->
  check
    (cfg.faults <> No_faults && cfg.spec = Ds_bench.Baseline)
    "the non-persistent baseline cannot survive a fault schedule"
  >>= fun () ->
  check
    (match cfg.drop_persists with Some s -> s < 0 || s >= cfg.shards | None -> false)
    "drop-persists shard out of range"
  >>= fun () ->
  check
    (match cfg.faults with
     | Kill fs -> List.exists (fun f -> f.shard < 0 || f.shard >= cfg.shards) fs
     | _ -> false)
    "fault schedule names a shard out of range"

(* ------------------------------------------------------------------ *)
(* Results.                                                           *)

type shard_stat = {
  s_id : int;
  s_state : string;
  s_executed : int;
  s_commits : int;
  s_shed : int;
  s_crashes : int;
  s_hints : int;
  s_recovery : int;
  s_busy : int;
}

type point = {
  offered : float;
  achieved : float;
  served : int;
  shed : int;
  partial : int;
  n : int;
  latency : Latency.summary option;
  dequeue_latency : Latency.summary option;
  gap : Latency.gap option;
  elapsed : int;
  failovers : int;
  crashes : int;
  repairs : int;
  recovery_cycles : int;
  retries : int;
  hints : int;
  checkpoints : int;
  violations : string list;
  leaked : int;
  shards : shard_stat array;
}

let shed_fraction p = if p.n = 0 then 0. else float_of_int p.shed /. float_of_int p.n

(* ------------------------------------------------------------------ *)
(* A deterministic binary min-heap keyed (time, insertion stamp), so    *)
(* same-time events process in creation order on every run.            *)

module Pq = struct
  type 'a t = {
    mutable a : (int * int * 'a) array;
    mutable n : int;
    mutable stamp : int;
    dummy : int * int * 'a;
  }

  let create dummy = { a = Array.make 64 (0, 0, dummy); n = 0; stamp = 0; dummy = (0, 0, dummy) }
  let length q = q.n

  let less (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

  let push q t v =
    if q.n = Array.length q.a then begin
      let a' = Array.make (2 * q.n) q.dummy in
      Array.blit q.a 0 a' 0 q.n;
      q.a <- a'
    end;
    let e = (t, q.stamp, v) in
    q.stamp <- q.stamp + 1;
    let i = ref q.n in
    q.n <- q.n + 1;
    q.a.(!i) <- e;
    while !i > 0 && less q.a.(!i) q.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = q.a.(p) in
      q.a.(p) <- q.a.(!i);
      q.a.(!i) <- tmp;
      i := p
    done

  let peek q = if q.n = 0 then None else let t, _, v = q.a.(0) in Some (t, v)

  let pop q =
    let t, _, v = q.a.(0) in
    q.n <- q.n - 1;
    q.a.(0) <- q.a.(q.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < q.n && less q.a.(l) q.a.(!m) then m := l;
      if r < q.n && less q.a.(r) q.a.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = q.a.(!m) in
        q.a.(!m) <- q.a.(!i);
        q.a.(!i) <- tmp;
        i := !m
      end
    done;
    (t, v)
end

(* ------------------------------------------------------------------ *)
(* Per-shard state.                                                   *)

type shard_phase =
  | Live
  | Dead  (* crashed, not yet noticed by the router *)
  | Repairing  (* detected; audited + repaired; re-admitted at [readmit] *)

(* One replicated write in flight: shared by every shard epoch that holds
   it.  [m_waits] counts executed-but-uncommitted replicas; the request
   resolves when it reaches 0. *)
type member = {
  m_req : int;
  mutable m_waits : int;
  mutable m_committed : int;
  mutable m_ack : int;  (* max commit finish over replicas: the client ack *)
}

type shard = {
  sid : int;
  sys : S.t;
  strat : Strategy.t;
  h : Ops.handle;
  mutable b : Batcher.t;
  mutable phase : shard_phase;
  mutable readmit : int;
  mutable busy_until : int;
  mutable occ : int;
  mutable epoch : member list;  (* newest first *)
  mutable epoch_n : int;
  mutable epoch_deadline : int;
  hints : (Arrival.op * int) Queue.t;
  mutable executed : int;
  mutable commits : int;
  mutable shed_full : int;
  mutable crashes : int;
  mutable hints_replayed : int;
  mutable recovery : int;
  mutable busy_cycles : int;
}

type status = Pending | Served | Shed

type req_state = {
  idx : int;
  mutable status : status;
  mutable stamp : int;  (* when a write last executed on its replicas: its Dlin stamp *)
  mutable svc_start : int;
  mutable attempts : int;
  mutable touched : bool;
}

(* ------------------------------------------------------------------ *)

(* Run [f] on the shard's system and return the simulated cycles it took. *)
let cycles sys f =
  let c0 = S.max_clock sys in
  T.run_task sys f;
  S.max_clock sys - c0

exception Hung of string

(* [cycles] under the recovery bound (a shard's repair, or the replay of
   its hint log): past it the run ends with a [fleet-hang] violation.
   [doing] names the operation in progress for the violation. *)
let bounded s ~doing f =
  match Recovery.run s.sys ~doing:(fun () -> !doing) f with
  | Ok c -> c
  | Error what -> raise (Hung (Printf.sprintf "shard %d: %s" s.sid what))

let realize_faults cfg ~rate =
  let fs =
    match cfg.faults with
    | No_faults -> []
    | Kill fs -> fs
    | Seeded n ->
      let horizon = max 1000 (int_of_float (float_of_int cfg.requests *. 1000. /. rate)) in
      let rng = Rng.create ~seed:(cfg.seed + 5) in
      List.init n (fun _ ->
        let at = Rng.int_in rng ~lo:(horizon / 5) ~hi:(max (horizon / 5) (4 * horizon / 5)) in
        { at; shard = Rng.int rng cfg.shards })
  in
  let a = Array.of_list fs in
  Array.sort (fun f1 f2 -> compare (f1.at, f1.shard) (f2.at, f2.shard)) a;
  a

let run cfg ~rate =
  (match validate cfg with
   | Ok () -> ()
   | Error e -> invalid_arg ("Fleet.run: " ^ e));
  if rate <= 0. then invalid_arg "Fleet.run: rate must be positive";
  let ring = Ring.create ~shards:cfg.shards ~vnodes:cfg.vnodes ~seed:cfg.seed in
  let replica_sets = Ring.replica_table ring ~key_range:cfg.key_range ~k:cfg.replicas in
  let route key = Ring.route replica_sets ~key in
  let primary key = match route key with p :: _ -> p | [] -> 0 in
  let group = cfg.batch > 1 in
  let pre = Ds_bench.prefill_keys ~key_range:cfg.key_range ~prefill:cfg.prefill in
  (* Build every shard: its own tiny system, strategy, structure, batcher;
     prefill it with the keys it owns and fence so the base state is
     durable (the oracle's ground truth must survive any crash). *)
  let make_shard sid =
    (* Setup (structure skeleton + prefill) always persists properly — the
       drop-persists fault, like the campaign's, applies to post-setup
       operation only, so a crash exposes lost updates, not a garbage
       skeleton. *)
    let { Shard.sys; strategy = clean; handle = h } =
      Shard.create ~params:(C.tiny ~cores:1 ())
        ~keep:(fun k -> List.mem sid (route k))
        ~shuffle_seed:(cfg.seed + sid) (shard_config cfg)
    in
    T.run_task sys clean.Strategy.fence;
    let strat =
      if cfg.drop_persists = Some sid then
        Campaign.(apply_fault Drop_all_persists ~calls:(ref 0) clean)
      else clean
    in
    {
      sid;
      sys;
      strat;
      h;
      b = Batcher.create ~group ~strategy:strat ~mode:cfg.mode ();
      phase = Live;
      readmit = 0;
      busy_until = 0;
      occ = 0;
      epoch = [];
      epoch_n = 0;
      epoch_deadline = 0;
      hints = Queue.create ();
      executed = 0;
      commits = 0;
      shed_full = 0;
      crashes = 0;
      hints_replayed = 0;
      recovery = 0;
      busy_cycles = 0;
    }
  in
  let shards = Array.init cfg.shards make_shard in
  let sched = Shard.schedule (shard_config cfg) ~rate in
  let n = Array.length sched in
  let reqs =
    Array.init n (fun idx ->
      { idx; status = Pending; stamp = 0; svc_start = -1; attempts = 0; touched = false })
  in
  (* Which reads fan out into multi-gets: drawn once, in schedule order, so
     a retry sees the same classification. *)
  let multi =
    let frng = Rng.create ~seed:(cfg.seed + 4) in
    Array.init n (fun _ -> Rng.int frng 100 < cfg.fanout_pct)
  in
  let jitter_rng = Rng.create ~seed:(cfg.seed + 3) in
  let backoff_delay attempt =
    min cfg.backoff_cap (cfg.backoff lsl min attempt 20)
    + Rng.int jitter_rng (max 1 (cfg.backoff / 2))
  in
  (* Fleet-time event machinery. *)
  let releases : int Pq.t = Pq.create 0 in  (* (free time, shard id) *)
  let retry_q : int Pq.t = Pq.create 0 in  (* (due time, request idx) *)
  let faults = realize_faults cfg ~rate in
  let fault_i = ref 0 in
  (* Counters. *)
  let issued = ref 0 and served = ref 0 and shed = ref 0 and partial = ref 0 in
  let failovers = ref 0 and crashes = ref 0 and repairs = ref 0 in
  let recovery_cycles = ref 0 and retries = ref 0 and hints_total = ref 0 in
  let checkpoints = ref 0 in
  let executions = ref 0 in
  let dispatching = ref 0 in
  let t_end = ref 0 in
  let violations = ref [] in
  let n_violations = ref 0 in
  let violation v =
    incr n_violations;
    if !n_violations <= 64 then violations := Invariant.violation_to_string v :: !violations
  in
  let lat = Sample.create () and dlat = Sample.create () in
  let bump_end t = if t > !t_end then t_end := t in
  let drain_releases t =
    let continue = ref true in
    while !continue do
      match Pq.peek releases with
      | Some (u, sid) when u <= t ->
        ignore (Pq.pop releases);
        shards.(sid).occ <- shards.(sid).occ - 1
      | _ -> continue := false
    done
  in
  (* served + shed + in_flight = issued, where in_flight is counted
     independently: distinct pending epoch members, queued retries, and the
     one request mid-dispatch.  Checked at every crash, detection,
     re-admission and at quiesce. *)
  let checkpoint ~at what =
    incr checkpoints;
    let pending = !issued - !served - !shed in
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun s ->
        List.iter
          (fun m ->
            if reqs.(m.m_req).status = Pending then Hashtbl.replace seen m.m_req ())
          s.epoch)
      shards;
    let tracked = Hashtbl.length seen + Pq.length retry_q + !dispatching in
    if pending <> tracked then
      violation
        (Invariant.make ~rule:"fleet-conservation"
           (Printf.sprintf
              "at %s (cycle %d): issued %d - served %d - shed %d = %d in flight, but \
               %d tracked (%d epoch members, %d retries, %d dispatching)"
              what at !issued !served !shed pending tracked (Hashtbl.length seen)
              (Pq.length retry_q) !dispatching))
  in
  let exec s f =
    let d = cycles s.sys f in
    s.executed <- s.executed + 1;
    s.busy_cycles <- s.busy_cycles + d;
    d
  in
  let resolve_served r ~ack ~key =
    r.status <- Served;
    incr served;
    bump_end ack;
    let arrival = sched.(r.idx).Arrival.arrival in
    Sample.add_int lat (ack - arrival);
    if r.svc_start >= 0 then Sample.add_int dlat (ack - r.svc_start);
    let rid = Trace.req_start ~at:arrival ~cls:Trace.Cls_fleet ~core:(primary key) ~addr:key in
    Trace.req_end ~at:ack rid
  in
  let resolve_shed r ~at =
    r.status <- Shed;
    incr shed;
    bump_end at
  in
  let resolve_member m =
    let r = reqs.(m.m_req) in
    if r.status = Pending then begin
      let key = sched.(m.m_req).Arrival.key in
      if m.m_committed > 0 then
        resolve_served r ~ack:m.m_ack ~key
      else
        (* Waits reach 0 without a commit only through a crash, which
           resolves the request itself. *)
        violation
          (Invariant.make ~rule:"fleet-member"
             (Printf.sprintf "request %d lost every replica wait without a commit" m.m_req))
    end
  in
  let commit_shard s ~at =
    if s.epoch_n > 0 then begin
      let start = max at s.busy_until in
      let d = cycles s.sys (fun () -> Batcher.commit s.b) in
      let f = start + d in
      s.busy_until <- f;
      s.busy_cycles <- s.busy_cycles + d;
      s.commits <- s.commits + 1;
      let members = List.rev s.epoch in
      s.epoch <- [];
      s.epoch_n <- 0;
      List.iter
        (fun m ->
          Pq.push releases f s.sid;
          m.m_waits <- m.m_waits - 1;
          m.m_committed <- m.m_committed + 1;
          if f > m.m_ack then m.m_ack <- f;
          if m.m_waits = 0 then resolve_member m)
        members;
      bump_end f
    end
  in
  let lazy_commits t =
    Array.iter
      (fun s ->
        if s.phase = Live && s.epoch_n > 0 && s.epoch_deadline <= t then
          commit_shard s ~at:s.epoch_deadline)
      shards
  in
  (* A request whose replicas were all down: retry after capped backoff,
     or shed once the retry budget is spent. *)
  let retry_or_shed r ~at =
    if r.attempts >= cfg.retry_max then resolve_shed r ~at
    else begin
      r.attempts <- r.attempts + 1;
      incr retries;
      Pq.push retry_q (at + backoff_delay (r.attempts - 1)) r.idx
    end
  in
  let shard_violations s =
    List.iter
      (fun v ->
        violation
          (Invariant.make ~rule:("shard-" ^ string_of_int s.sid ^ "/" ^ v.Invariant.rule)
             ?addr:v.Invariant.addr v.Invariant.detail))
      (Invariant.check_all ~quiesced:true s.sys)
  in
  let crash_shard f =
    let s = shards.(f.shard) in
    S.crash s.sys;
    s.crashes <- s.crashes + 1;
    incr crashes;
    (* the open epoch (volatile, unfenced) dies with the shard *)
    let lost = List.rev s.epoch in
    s.epoch <- [];
    s.occ <- s.occ - s.epoch_n;
    s.epoch_n <- 0;
    s.b <- Batcher.create ~group ~strategy:s.strat ~mode:cfg.mode ();
    s.phase <- Dead;
    s.busy_until <- f.at;
    bump_end f.at;
    List.iter
      (fun m ->
        let req = sched.(m.m_req) in
        (* this shard lost its (uncommitted) copy: hint it for replay *)
        Queue.add (req.Arrival.op, req.Arrival.key) s.hints;
        m.m_waits <- m.m_waits - 1;
        if m.m_waits = 0 then begin
          let r = reqs.(m.m_req) in
          if r.status = Pending then
            if m.m_committed > 0 then
              (* durable on other replicas; the client ack rides the
                 replication timeout instead of the dead shard's commit *)
              resolve_served r ~ack:(max m.m_ack (f.at + cfg.timeout)) ~key:req.Arrival.key
            else retry_or_shed r ~at:(f.at + cfg.timeout)
        end)
      lost;
    checkpoint ~at:f.at "crash"
  in
  (* First contact with a dead shard: the router pays [timeout], then runs
     the PR-4 recovery path — post-crash invariant sweep, structure repair,
     epoch commit — and schedules re-admission. *)
  let detect s ~at =
    incr repairs;
    shard_violations s;
    let d =
      bounded s ~doing:(ref "repair") (fun () ->
        ignore (s.h.Ops.repair (Batcher.pctx s.b) : int);
        Batcher.commit s.b)
    in
    s.recovery <- s.recovery + d;
    recovery_cycles := !recovery_cycles + d;
    s.phase <- Repairing;
    s.readmit <- at + cfg.timeout + d;
    s.busy_until <- s.readmit;
    bump_end s.readmit;
    checkpoint ~at "detect"
  in
  (* Re-admission: replay the hint log (writes the shard missed while down)
     through the structure and commit, then take traffic again. *)
  let readmit_shard s ~at =
    if not (Queue.is_empty s.hints) then begin
      let count = Queue.length s.hints in
      let doing = ref "" in
      let d =
        bounded s ~doing (fun () ->
          let pctx = Batcher.pctx s.b in
          Queue.iter
            (fun (op, key) ->
              doing := Printf.sprintf "replaying hint %s %d" (Arrival.op_name op) key;
              Shard.apply pctx s.h op key)
            s.hints;
          doing := "committing the replayed hints";
          Batcher.commit s.b)
      in
      Queue.clear s.hints;
      s.recovery <- s.recovery + d;
      recovery_cycles := !recovery_cycles + d;
      s.hints_replayed <- s.hints_replayed + count;
      hints_total := !hints_total + count;
      s.busy_until <- max s.busy_until at + d
    end;
    s.phase <- Live;
    bump_end at;
    checkpoint ~at "readmit"
  in
  let join_epoch s m ~start =
    if s.epoch_n = 0 then s.epoch_deadline <- start + linger;
    s.epoch <- m :: s.epoch;
    s.epoch_n <- s.epoch_n + 1;
    s.occ <- s.occ + 1;
    if s.epoch_n >= min cfg.batch cfg.depth then commit_shard s ~at:s.busy_until
  in
  (* Walk a key's replica set from fleet time [t]: re-admit repaired shards
     whose time has come, detect dead ones (paying [timeout] each), and
     return the first shard that can serve a read. *)
  let rec walk_read t = function
    | [] -> `Down t
    | sid :: rest -> (
      let s = shards.(sid) in
      if s.phase = Repairing && t >= s.readmit then readmit_shard s ~at:t;
      match s.phase with
      | Dead ->
        detect s ~at:t;
        walk_read (t + cfg.timeout) rest
      | Repairing -> walk_read t rest
      | Live ->
        drain_releases t;
        if s.occ >= cfg.depth then `Full (s, t) else `Serve (s, t))
  in
  let classify_write t rt =
    let t_eff = ref t in
    let live = ref [] and down = ref [] in
    List.iter
      (fun sid ->
        let s = shards.(sid) in
        if s.phase = Repairing && !t_eff >= s.readmit then readmit_shard s ~at:!t_eff;
        match s.phase with
        | Dead ->
          detect s ~at:!t_eff;
          t_eff := !t_eff + cfg.timeout;
          down := s :: !down
        | Repairing -> down := s :: !down
        | Live -> live := s :: !live)
      rt;
    (List.rev !live, List.rev !down, !t_eff)
  in
  (* One read of [key] from fleet time [at] on the first replica that can
     take it. *)
  let read_key r key ~at =
    match walk_read at (route key) with
    | `Serve (s, t_eff) ->
      if s.sid <> primary key then incr failovers;
      let start = max t_eff s.busy_until in
      let fin =
        start + exec s (fun () -> ignore (s.h.Ops.contains (Batcher.pctx s.b) key : bool))
      in
      s.busy_until <- fin;
      s.occ <- s.occ + 1;
      Pq.push releases fin s.sid;
      if r.svc_start < 0 then r.svc_start <- start;
      `Served fin
    | `Full (s, t_eff) ->
      s.shed_full <- s.shed_full + 1;
      `Full t_eff
    | `Down t_eff -> `Down t_eff
  in
  let dispatch_write r ~at =
    let req = sched.(r.idx) in
    let key = req.Arrival.key in
    let live, down, t_eff = classify_write at (route key) in
    match live with
    | [] -> retry_or_shed r ~at:t_eff
    | s0 :: _ ->
      drain_releases t_eff;
      if s0.occ >= cfg.depth then begin
        s0.shed_full <- s0.shed_full + 1;
        resolve_shed r ~at:t_eff
      end
      else begin
        if s0.sid <> primary key then incr failovers;
        r.touched <- true;
        r.stamp <- !executions;
        incr executions;
        let m = { m_req = r.idx; m_waits = List.length live; m_committed = 0; m_ack = 0 } in
        List.iter
          (fun s ->
            let start = max t_eff s.busy_until in
            if r.svc_start < 0 then r.svc_start <- start;
            let d =
              exec s (fun () -> Shard.apply (Batcher.pctx s.b) s.h req.Arrival.op key)
            in
            s.busy_until <- start + d;
            join_epoch s m ~start)
          live;
        List.iter (fun s -> Queue.add (req.Arrival.op, key) s.hints) down
      end
  in
  let dispatch_read r ~at =
    let key = sched.(r.idx).Arrival.key in
    match read_key r key ~at with
    | `Served fin -> resolve_served r ~ack:fin ~key
    | `Full t_eff -> resolve_shed r ~at:t_eff
    | `Down t_eff -> retry_or_shed r ~at:t_eff
  in
  (* Multi-get: [fanout] sub-reads fanned out concurrently over derived
     keys; the request completes at the slowest sub-read.  Sub-reads that
     find every replica down (or a full waiting room) are dropped and the
     result is partial — degraded, never blocked. *)
  let dispatch_multi r ~at =
    let base = sched.(r.idx).Arrival.key in
    let step = max 1 (cfg.key_range / fanout) in
    let best_ack = ref (-1) in
    let missing = ref 0 in
    for j = 0 to fanout - 1 do
      match read_key r (1 + ((base - 1 + (j * step)) mod cfg.key_range)) ~at with
      | `Served fin -> if fin > !best_ack then best_ack := fin
      | `Full _ | `Down _ -> incr missing
    done;
    if !best_ack < 0 then resolve_shed r ~at
    else begin
      if !missing > 0 then incr partial;
      resolve_served r ~ack:!best_ack ~key:base
    end
  in
  let dispatch idx ~at =
    let r = reqs.(idx) in
    match sched.(idx).Arrival.op with
    | Arrival.Insert | Arrival.Delete -> dispatch_write r ~at
    | Arrival.Contains -> if multi.(idx) then dispatch_multi r ~at else dispatch_read r ~at
  in
  (* Process every crash and due retry with time <= t, in time order
     (crashes win ties), committing lingering epochs as the clock passes
     their deadlines. *)
  let rec advance t =
    let nf = if !fault_i < Array.length faults then Some faults.(!fault_i).at else None in
    let nr = match Pq.peek retry_q with Some (u, _) -> Some u | None -> None in
    match nf, nr with
    | Some tf, _ when tf <= t && (match nr with Some u -> tf <= u | None -> true) ->
      let f = faults.(!fault_i) in
      incr fault_i;
      lazy_commits f.at;
      crash_shard f;
      advance t
    | _, Some u when u <= t ->
      let _, ridx = Pq.pop retry_q in
      lazy_commits u;
      drain_releases u;
      dispatching := 1;
      dispatch ridx ~at:u;
      dispatching := 0;
      advance t
    | _ ->
      lazy_commits t;
      drain_releases t
  in
  (* ---------------- main loop ---------------- *)
  let serve_all () =
    for idx = 0 to n - 1 do
      let at = sched.(idx).Arrival.arrival in
      advance at;
      dispatch idx ~at;
      incr issued
    done;
    (* Quiesce: drain every remaining fault and retry, close every epoch,
       then force still-down shards through detection/re-admission so the
       whole fleet is live (and hint logs are empty) for verification. *)
    advance max_int;
    Array.iter
      (fun s ->
        match s.phase with
        | Dead ->
          let at = max !t_end s.busy_until in
          detect s ~at;
          readmit_shard s ~at:s.readmit
        | Repairing -> readmit_shard s ~at:(max s.readmit !t_end)
        | Live -> ())
      shards;
    advance max_int;
    drain_releases max_int
  in
  (* ---------------- verification ---------------- *)
  let verify ~leaked =
    checkpoint ~at:!t_end "quiesce";
    let hung = !issued - !served - !shed in
    if hung <> 0 then
      violation
        (Invariant.make ~rule:"fleet-hang"
           (Printf.sprintf "%d request(s) neither served nor shed at quiesce" hung));
    if leaked <> 0 then
      violation
        (Invariant.make ~rule:"fleet-leak"
           (Printf.sprintf "%d waiting-room slot(s) still held at quiesce" leaked));
    (* Structural invariants on every (now quiesced, repaired) shard. *)
    Array.iter shard_violations shards;
    (* Durable linearizability, one {!Dlin} check per replica: the
       prefill it owns is the initial state, a served write is acked at
       its execution stamp (every live replica applies writes in that
       order, and a hint log replays in it), and a write that touched a
       replica but was shed is in flight.  A key a replica does not own
       has no history there, so holding it is a violation. *)
    let initial = Array.make cfg.shards [] and history = Array.make cfg.shards [] in
    let add tbl key x = List.iter (fun sid -> tbl.(sid) <- x :: tbl.(sid)) (route key) in
    Array.iter (fun k -> add initial k k) pre;
    Array.iter
      (fun r ->
        let { Arrival.op; key; _ } = sched.(r.idx) in
        let write =
          match op with
          | Arrival.Insert -> Some Dlin.Insert
          | Arrival.Delete -> Some Dlin.Delete
          | Arrival.Contains -> None
        in
        match write, r.status with
        | Some w, Served -> add history key (key, w, Dlin.Acked r.stamp)
        | Some w, Shed when r.touched -> add history key (key, w, In_flight)
        | _ -> ())
      reqs;
    Array.iter
      (fun s ->
        match s.h.Ops.snapshot s.sys with
        | snapshot ->
          List.iter
            (fun v ->
              violation
                (Invariant.make ~rule:"fleet-durability"
                   (Printf.sprintf "shard %d: %s" s.sid v.Invariant.detail)))
            (Dlin.set ~crashed:(s.crashes > 0) ~initial:initial.(s.sid) history.(s.sid)
               snapshot)
        | exception Skipit_pds.Node.Cycle at ->
          violation
            (Invariant.make ~rule:"snapshot-cycle"
               (Printf.sprintf "shard %d: the snapshot walk loops (at node %#x)" s.sid at)))
      shards
  in
  let hang = match serve_all () with () -> None | exception Hung what -> Some what in
  let leaked = Array.fold_left (fun acc s -> acc + s.occ) 0 shards in
  (match hang with
   | None -> verify ~leaked
   | Some what -> violation (Invariant.make ~rule:"fleet-hang" what));
  let violations =
    let base = List.rev !violations in
    if !n_violations > 64 then
      base @ [ Printf.sprintf "... (%d more violations suppressed)" (!n_violations - 64) ]
    else base
  in
  let elapsed = !t_end in
  let sum = Shard.summarize ~served:!served ~elapsed ~intended:lat ~dequeue:dlat in
  {
    offered = rate;
    achieved = sum.Shard.achieved;
    served = !served;
    shed = !shed;
    partial = !partial;
    n;
    latency = sum.Shard.latency;
    dequeue_latency = sum.Shard.dequeue_latency;
    gap = sum.Shard.gap;
    elapsed;
    failovers = !failovers;
    crashes = !crashes;
    repairs = !repairs;
    recovery_cycles = !recovery_cycles;
    retries = !retries;
    hints = !hints_total;
    checkpoints = !checkpoints;
    violations;
    leaked;
    shards =
      Array.map
        (fun s ->
          {
            s_id = s.sid;
            s_state =
              (match s.phase with Live -> "live" | Dead -> "dead" | Repairing -> "repairing");
            s_executed = s.executed;
            s_commits = s.commits;
            s_shed = s.shed_full;
            s_crashes = s.crashes;
            s_hints = s.hints_replayed;
            s_recovery = s.recovery;
            s_busy = s.busy_cycles;
          })
        shards;
  }

let sweep ?pool cfg ~rates = Pool.map pool (fun rate -> run cfg ~rate) rates

(* ------------------------------------------------------------------ *)
(* Reproducers (campaign-style key=value files) and shrinking.        *)

(* Every reproducer key, in file order, with whether it may be absent (keys
   older reproducers predate), its printer ([None] omits the line) and its
   parser into a config.  The writer and the reader both walk this table;
   the reader ignores other keys (older files' [linger] and [fanout]). *)
let repro_fields =
  let field ?(optional = false) k show (read : config -> string -> config option) =
    (k, optional, show, read)
  in
  let named k name of_name (get : config -> _) set =
    field k (fun c -> Some (name (get c))) (fun c v -> Option.map (set c) (of_name v))
  in
  let int k = named k string_of_int int_of_string_opt in
  let opt_int k (get : config -> _) set =
    field ~optional:true k (fun c -> Option.map string_of_int (get c)) (fun c v ->
      Option.map (fun n -> set c (Some n)) (int_of_string_opt v))
  in
  [
    int "shards" (fun c -> c.shards) (fun c shards -> { c with shards });
    int "replicas" (fun c -> c.replicas) (fun c replicas -> { c with replicas });
    int "vnodes" (fun c -> c.vnodes) (fun c vnodes -> { c with vnodes });
    named "structure" Ops.kind_name Ops.kind_of_name (fun c -> c.kind) (fun c kind ->
      { c with kind });
    named "mode" Pctx.mode_name Pctx.mode_of_name (fun c -> c.mode) (fun c mode -> { c with mode });
    named "strategy" Ds_bench.spec_name Ds_bench.spec_of_name (fun c -> c.spec) (fun c spec ->
      { c with spec });
    named "process" Arrival.process_name Arrival.process_of_name (fun c -> c.process)
      (fun c process -> { c with process });
    field ~optional:true "keys"
      (fun c -> Some (Workload.keys_name c.workload.Workload.keys))
      (fun c v ->
        Option.map (fun keys -> { c with workload = { c.workload with keys } })
          (Workload.keys_of_name v));
    opt_int "churn" (fun c -> c.workload.Workload.churn) (fun c churn ->
      { c with workload = { c.workload with churn } });
    int "clients" (fun c -> c.clients) (fun c clients -> { c with clients });
    int "requests" (fun c -> c.requests) (fun c requests -> { c with requests });
    int "depth" (fun c -> c.depth) (fun c depth -> { c with depth });
    int "batch" (fun c -> c.batch) (fun c batch -> { c with batch });
    int "retry_max" (fun c -> c.retry_max) (fun c retry_max -> { c with retry_max });
    int "backoff" (fun c -> c.backoff) (fun c backoff -> { c with backoff });
    int "backoff_cap" (fun c -> c.backoff_cap) (fun c backoff_cap -> { c with backoff_cap });
    int "timeout" (fun c -> c.timeout) (fun c timeout -> { c with timeout });
    int "fanout_pct" (fun c -> c.fanout_pct) (fun c fanout_pct -> { c with fanout_pct });
    int "key_range" (fun c -> c.key_range) (fun c key_range -> { c with key_range });
    int "update_pct" (fun c -> c.update_pct) (fun c update_pct -> { c with update_pct });
    int "prefill" (fun c -> c.prefill) (fun c prefill -> { c with prefill });
    int "seed" (fun c -> c.seed) (fun c seed -> { c with seed });
    named "faults" fault_schedule_name fault_schedule_of_name (fun c -> c.faults) (fun c faults ->
      { c with faults });
    opt_int "drop_persists" (fun c -> c.drop_persists) (fun c drop_persists ->
      { c with drop_persists });
  ]

let write_reproducer path (cfg : config) ~rate =
  Repro_file.write path ~header:"skipit fleet failure reproducer"
    (("rate", Printf.sprintf "%h" rate)
    :: List.filter_map (fun (k, _, show, _) -> Option.map (fun v -> (k, v)) (show cfg)) repro_fields)

let read_reproducer path =
  let ( let* ) = Result.bind in
  let* r = Repro_file.read path in
  Result.map_error (Printf.sprintf "reproducer %s: %s" path)
    (let* rate = Repro_file.parse r "rate" float_of_string_opt in
     let* cfg =
       List.fold_left
         (fun acc (k, optional, _, read) ->
           let* c = acc in
           match Repro_file.find r k with
           | None when optional -> Ok c
           | None -> Error ("missing field " ^ k)
           | Some v -> Option.to_result ~none:(Printf.sprintf "unknown %s %s" k v) (read c v))
         (Ok default) repro_fields
     in
     Ok (cfg, rate))

let shrink cfg ~rate =
  let fails c = let p = run c ~rate in (p, p.violations <> []) in
  (* Greedy: halve the schedule while the failure survives. *)
  let rec halve (c, p) =
    let next = { c with requests = c.requests / 2 } in
    if next.requests < 1 then (c, p)
    else match fails next with p', true -> halve (next, p') | _ -> (c, p)
  in
  match fails cfg with p0, true -> halve (cfg, p0) | p0, false -> (cfg, p0)
