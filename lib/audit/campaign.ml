module S = Skipit_core.System
module C = Skipit_core.Config
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Strategy = Skipit_persist.Strategy
module Pctx = Skipit_persist.Pctx
module Mem_port = Skipit_persist.Mem_port
module Allocator = Skipit_mem.Allocator
module Ops = Skipit_pds.Set_ops
module MQ = Skipit_pds.Ms_queue
module Node = Skipit_pds.Node
module PL = Skipit_mem.Persist_log
module Rng = Skipit_sim.Rng
module Pool = Skipit_par.Pool
module Ds_bench = Skipit_workload.Ds_bench

(* ------------------------------------------------------------------ *)
(* Campaign dimensions.                                               *)

type structure = Queue | Set of Ops.kind

let all_structures = Queue :: List.map (fun k -> Set k) Ops.all_kinds
let structure_name = function Queue -> "ms-queue" | Set k -> Ops.kind_name k

let structure_of_name name =
  List.find_opt (fun s -> structure_name s = name) all_structures

type fault = No_fault | Drop_nth_persist of int | Drop_all_persists

let fault_name = function
  | No_fault -> "none"
  | Drop_nth_persist n -> Printf.sprintf "drop-nth-persist:%d" n
  | Drop_all_persists -> "drop-all-persists"

let fault_of_name = function
  | "none" -> Some No_fault
  | "drop-all-persists" -> Some Drop_all_persists
  | s -> (
    match String.index_opt s ':' with
    | Some i
      when String.sub s 0 i = "drop-nth-persist" -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some n when n >= 1 -> Some (Drop_nth_persist n)
      | _ -> None)
    | _ -> None)

type spec = {
  structure : structure;
  mode : Pctx.mode;
  strategy : Ds_bench.strategy_spec;
  fault : fault;
  seed : int;
  n_ops : int;
  l2_banks : int;
}

let spec_name s =
  Printf.sprintf "%s/%s/%s%s seed=%d ops=%d" (structure_name s.structure)
    (Pctx.mode_name s.mode) (Ds_bench.spec_name s.strategy)
    (match s.fault with No_fault -> "" | f -> "+" ^ fault_name f)
    s.seed s.n_ops

let compatible s =
  match s.strategy, s.structure with
  | Ds_bench.Baseline, _ -> false (* it never persists: no crash can be survived *)
  | _, Queue -> true
  | strategy, Set kind -> Ds_bench.compatible kind strategy

let grid ?(structures = all_structures) ?(modes = Pctx.all_modes)
    ?(strategies = Ds_bench.[ Plain; Skipit ]) ~seed ~n_ops ~fault () =
  let spec structure mode strategy =
    { structure; mode; strategy; fault; seed; n_ops; l2_banks = 1 }
  in
  let specs =
    List.concat_map
      (fun structure ->
        List.concat_map
          (fun mode -> List.filter compatible (List.map (spec structure mode) strategies))
          modes)
      structures
  in
  match List.find_opt (fun st -> not (List.exists (fun s -> s.strategy = st) specs)) strategies with
  | None -> Ok specs
  | Some st ->
    Error
      (Printf.sprintf
         "strategy %s cannot be crash-tested on any requested structure (baseline \
          never persists; link-and-persist clashes with the BST's word bits)"
         (Ds_bench.spec_name st))

let default_specs ~seed ~n_ops ~fault = Result.get_ok (grid ~seed ~n_ops ~fault ())

(* ------------------------------------------------------------------ *)
(* Fault injection.                                                   *)

(* The seeded-fault wrapper: silently elide required store-side writebacks.
   Exactly the bug class FliT frames — one missing flush breaking durable
   linearizability — and what the campaign must demonstrably catch.
   [calls] counts the store-side persist calls for [Drop_nth_persist]; it
   is the world's, so a copied world copies it. *)
let apply_fault fault ~calls (s : Strategy.t) =
  match fault with
  | No_fault -> s
  | Drop_all_persists ->
    { s with name = s.name ^ "+" ^ fault_name fault; persist_store = (fun _ -> ()) }
  | Drop_nth_persist n ->
    {
      s with
      name = s.name ^ "+" ^ fault_name fault;
      persist_store =
        (fun addr ->
          incr calls;
          if !calls <> n then s.persist_store addr);
    }

(* ------------------------------------------------------------------ *)
(* Deterministic op schedules.                                       *)

type set_op = Insert of int | Delete of int | Contains of int
type queue_op = Dlin.queue_op = Enqueue of int | Dequeue

(* A structure's op schedule and, once the trial body has built it, its
   handle.  Both are typed per structure, so a set op can never be
   dispatched to a queue or the other way round. *)
type target =
  | Set_target of { kind : Ops.kind; set_ops : set_op array; mutable set : Ops.handle option }
  | Queue_target of { queue_ops : queue_op array; mutable queue : MQ.t option }

let set_key_range = 16

let gen_target spec =
  let rng = Rng.create ~seed:(spec.seed lxor (Hashtbl.hash (structure_name spec.structure) * 65599)) in
  match spec.structure with
  | Set kind ->
    let set_ops =
      Array.init spec.n_ops (fun _ ->
        let key = 1 + Rng.int rng set_key_range in
        let r = Rng.int rng 100 in
        if r < 45 then Insert key else if r < 80 then Delete key else Contains key)
    in
    Set_target { kind; set_ops; set = None }
  | Queue ->
    let next_value = ref 0 in
    let queue_ops =
      Array.init spec.n_ops (fun _ ->
        if Rng.int rng 100 < 60 then begin
          incr next_value;
          Enqueue !next_value
        end
        else Dequeue)
    in
    Queue_target { queue_ops; queue = None }

(* ------------------------------------------------------------------ *)
(* One trial.                                                         *)

type trial = {
  persists : int;
  crashed : bool;
  completed : int;
  violations : string list;
}

let build_system spec =
  let params =
    {
      (C.tiny ~cores:1 ()) with
      Params.skip_it = Ds_bench.wants_skip_it_hw spec.strategy;
      l2_banks = spec.l2_banks;
    }
  in
  S.create params

(* Everything a trial mutates, in one record: the three stages below
   ([build], [run], [finish]) touch nothing else, which is what lets a
   crash trial run on a copy taken mid-run (see [copy_into]).  The build
   arguments come first, so a copy can be built like its original. *)
type world = {
  spec : spec;
  audit_every : int;
  sys : S.t;
  p : Pctx.t;  (* the realized strategy, counting its persist points *)
  target : target;
  auditor : Auditor.t;
  persist_points : int ref;
  fault_calls : int ref;  (* store-side persist calls, for [Drop_nth_persist] *)
  mutable completed : int;
}

(* [spec]'s strategy over [port], with its fault applied, as the context
   that counts persist points.  Crash boundaries count persist-point
   *calls*, not persist-log events: a fault that elides the writeback must
   not also elide the boundary that would expose it.  The counter
   increments after the call returns, so an honest flush has already
   issued (and, under eager timing, its data is durable) when the crash
   lands at the next dispatch. *)
let counted_pctx spec port alloc ~fault_calls ~persist_points =
  let strategy =
    apply_fault spec.fault ~calls:fault_calls (Ds_bench.realize spec.strategy port alloc)
  in
  let counted =
    {
      strategy with
      persist_store =
        (fun a ->
          strategy.Strategy.persist_store a;
          incr persist_points);
      persist_load =
        (fun a ->
          strategy.Strategy.persist_load a;
          incr persist_points);
    }
  in
  Pctx.make counted spec.mode

let build ?(audit_every = 400) spec =
  let sys = build_system spec in
  let fault_calls = ref 0 in
  let persist_points = ref 0 in
  let p = counted_pctx spec Mem_port.timed (S.allocator sys) ~fault_calls ~persist_points in
  let auditor = Auditor.create sys in
  Auditor.attach auditor ~every:audit_every;
  {
    spec;
    audit_every;
    sys;
    p;
    target = gen_target spec;
    auditor;
    persist_points;
    fault_calls;
    completed = 0;
  }

let system w = w.sys
let persist_points w = !(w.persist_points)

(* Build [target]'s structure through [p] on [alloc] and run its op
   schedule, calling [completed] after each op. *)
let run_schedule target p alloc ~completed =
  match target with
  | Set_target t ->
    let h = Ops.create_sized t.kind ~buckets:4 p alloc in
    t.set <- Some h;
    Array.iter
      (fun op ->
        (match op with
         | Insert k -> ignore (h.Ops.insert p k)
         | Delete k -> ignore (h.Ops.delete p k)
         | Contains k -> ignore (h.Ops.contains p k));
        completed ())
      t.set_ops
  | Queue_target t ->
    let q = MQ.create p alloc in
    t.queue <- Some q;
    Array.iter
      (fun op ->
        (match op with Enqueue v -> MQ.enqueue q p v | Dequeue -> ignore (MQ.dequeue q p));
        completed ())
      t.queue_ops

let body w () =
  run_schedule w.target w.p (S.allocator w.sys) ~completed:(fun () ->
    w.completed <- w.completed + 1)

let run w ~stop =
  match T.run_until w.sys ~stop [ { T.core = 0; body = body w } ] with
  | `Stopped _ -> true
  | `Completed _ -> false

(* The schedule as a {!Dlin} history: the first [completed] ops are
   acked, stamped by their index, and a crash leaves the next one in
   flight.  [entry] drops the ops that write nothing. *)
let history ops ~completed ~crashed entry =
  let started = Int.min (Array.length ops) (if crashed then completed + 1 else completed) in
  List.filter_map Fun.id
    (List.init started (fun i -> entry ops.(i) (if i < completed then Dlin.Acked i else In_flight)))

let finish w ~crashed =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  if crashed then begin
    S.crash w.sys;
    Auditor.note_crash w.auditor
  end
  else ignore (Auditor.observe w.auditor);
  (* Post-crash (before the repair) or uncrashed: the machinery must be clean. *)
  List.iter
    (fun v -> add (Invariant.violation_to_string v))
    (Invariant.check_all ~quiesced:true w.sys);
  (* Dlin's verdicts print as their text alone.  After a crash the repair
     runs first, bounded: one that runs past the bound is the trial's
     [repair-hang], and the structure it left is not walked for a verdict.
     A snapshot whose links loop is the trial's [snapshot-cycle]. *)
  let durability repair verdicts =
    match if crashed then Recovery.run w.sys ~doing:(fun () -> "repair") repair else Ok 0 with
    | Ok _ -> (
      match verdicts () with
      | vs -> List.iter (fun v -> add v.Invariant.detail) vs
      | exception Node.Cycle at ->
        add (Printf.sprintf "[snapshot-cycle] the snapshot walk loops (at node %#x)" at))
    | Error e -> add (Invariant.violation_to_string (Invariant.make ~rule:"repair-hang" e))
  in
  let completed = w.completed in
  (match w.target with
   | Set_target { set = None; _ } | Queue_target { queue = None; _ } ->
     (* crashed during construction: nothing was promised *)
     if not crashed then add "uncrashed run never constructed the structure"
   | Set_target { set = Some h; set_ops; _ } ->
     durability
       (fun () -> ignore (h.Ops.repair w.p))
       (fun () ->
         Dlin.set ~crashed ~initial:[]
           (history set_ops ~completed ~crashed (fun op ack ->
              match op with
              | Insert k -> Some (k, Dlin.Insert, ack)
              | Delete k -> Some (k, Dlin.Delete, ack)
              | Contains _ -> None))
           (h.Ops.snapshot w.sys))
   | Queue_target { queue = Some q; queue_ops } ->
     durability
       (fun () -> ignore (MQ.repair q w.p))
       (fun () ->
         Dlin.queue ~crashed
           (history queue_ops ~completed ~crashed (fun op ack -> Some (op, ack)))
           (MQ.to_list_unsafe q w.sys)));
  List.iter
    (fun v -> add ("audit: " ^ Invariant.violation_to_string v))
    (Auditor.failures w.auditor);
  {
    persists = !(w.persist_points);
    crashed;
    completed;
    violations = List.rev !violations;
  }

let run_trial ?audit_every spec ~crash_at =
  let w = build ?audit_every spec in
  let stop =
    match crash_at with
    | None -> fun () -> false
    | Some b -> fun () -> !(w.persist_points) >= b
  in
  finish w ~crashed:(run w ~stop)

(* The persist-point total of [spec]'s uncrashed run, counted without
   simulating it: the schedule runs straight through the strategy over
   the untimed port, on an allocator with the system's base.  With one
   core, which persist points a run calls depends only on the values it
   reads, and the untimed port returns the values the hierarchy would;
   the auditor only observes.  [with_persists] checks that the audited
   run agreed. *)
let count_persists spec =
  let alloc = Allocator.create () in
  let persist_points = ref 0 in
  let p =
    counted_pctx spec (Mem_port.untimed ()) alloc ~fault_calls:(ref 0) ~persist_points
  in
  run_schedule (gen_target spec) p alloc ~completed:ignore;
  !persist_points

let with_persists ~persists (t : trial) =
  if t.persists = persists then t
  else
    let v =
      Invariant.make ~rule:"persist-count"
        (Printf.sprintf "the audited run made %d persist-point calls, the counting pass %d"
           t.persists persists)
    in
    { t with violations = t.violations @ [ Invariant.violation_to_string v ] }

(* ------------------------------------------------------------------ *)
(* Forked crash trials.                                               *)

(* Make [dst], a world built with [src]'s arguments, a faithful copy of
   [src] paused between dispatches.  Every component is copied in place
   by its own [copy_into], so [dst]'s closures stay wired to [dst]'s
   components; the structure handle is the one piece rebuilt, on [dst]'s
   allocator.  Whatever [dst] held before, a finished trial included, is
   overwritten. *)
let copy_into ~src ~dst =
  if (dst.spec != src.spec && dst.spec <> src.spec) || dst.audit_every <> src.audit_every then
    invalid_arg "Campaign.copy_into: worlds built from different arguments";
  S.copy_into ~src:src.sys ~dst:dst.sys;
  Auditor.copy_into ~src:src.auditor ~dst:dst.auditor;
  dst.persist_points := !(src.persist_points);
  dst.fault_calls := !(src.fault_calls);
  dst.completed <- src.completed;
  let alloc = S.allocator dst.sys in
  match src.target, dst.target with
  | Set_target s, Set_target d -> d.set <- Option.map (fun h -> Ops.rebind h alloc) s.set
  | Queue_target s, Queue_target d -> d.queue <- Option.map (fun q -> MQ.rebind q alloc) s.queue
  | (Set_target _ | Queue_target _), _ -> assert false (* same spec *)

let copy w =
  let twin = build ~audit_every:w.audit_every w.spec in
  copy_into ~src:w ~dst:twin;
  twin

(* One run of [spec] that never stops on its own, beside one twin world.
   At the first dispatch where the persist-point count reaches each
   boundary of the ascending list [bs], the run is copied into the twin
   and the twin is crashed and finished right there, exactly as a replay
   with [~crash_at:(Some b)] would stop and finish; [at b trial] returning
   [true] ends the run, and the result is [None].  Once the run completes
   it is finished uncrashed in place: the result is that trial and the
   boundaries first reached after the last dispatch.  A replay never
   stops at those either, so their trial is the uncrashed one. *)
let fork_run spec bs ~at =
  let w = build spec in
  let twin = build spec in
  let pending = ref bs in
  let rec reached () =
    match !pending with
    | b :: rest when !(w.persist_points) >= b ->
      pending := rest;
      copy_into ~src:w ~dst:twin;
      at b (finish twin ~crashed:true) || reached ()
    | _ -> false
  in
  if run w ~stop:reached then None else Some (finish w ~crashed:false, !pending)

(* Every boundary's trial and the uncrashed one, from one forked run. *)
let forked_trials spec bs =
  let trials = ref [] in
  match
    fork_run spec bs ~at:(fun b t ->
      trials := (b, t) :: !trials;
      false)
  with
  | Some (uncrashed, unreached) ->
    List.rev_append !trials (List.map (fun b -> b, uncrashed) unreached), uncrashed
  | None -> assert false (* [at] never ends the run *)

let crash_trials spec bs = fst (forked_trials spec bs)

(* ------------------------------------------------------------------ *)
(* Campaign driver.                                                   *)

type failure = { spec : spec; crash_at : int option; completed : int; violations : string list }

let failure_at spec b (t : trial) =
  match t.violations with
  | [] -> None
  | v -> Some { spec; crash_at = Some b; completed = t.completed; violations = v }

type report = {
  spec : spec;
  persists : int;
  boundaries_tested : int;
  failure : failure option;
}

(* First, last, then sampled: a budget of 0 or 1 takes a prefix of that
   order, so a run never tests more boundaries than its budget. *)
let boundaries ~persists ~budget ~seed =
  if persists <= budget then List.init (Int.max 0 persists) (fun i -> i + 1)
  else if budget <= 1 then List.init (Int.max 0 budget) (fun i -> i + 1)
  else begin
    let rng = Rng.create ~seed:(seed lxor 0x5EED) in
    let picks = Hashtbl.create budget in
    Hashtbl.replace picks 1 ();
    Hashtbl.replace picks persists ();
    while Hashtbl.length picks < budget do
      Hashtbl.replace picks (1 + Rng.int rng persists) ()
    done;
    List.sort Int.compare (Hashtbl.fold (fun b () acc -> b :: acc) picks [])
  end

(* The counting pass sizes the boundaries; one forked run then yields the
   crash trials and, at its end, the uncrashed trial, whose failure takes
   precedence as if it had run first. *)
let run_spec ?(budget = 20) spec =
  let persists = count_persists spec in
  let bs = boundaries ~persists ~budget ~seed:spec.seed in
  let trials, uncrashed = forked_trials spec bs in
  match (with_persists ~persists uncrashed).violations with
  | _ :: _ as violations ->
    {
      spec;
      persists;
      boundaries_tested = 0;
      failure = Some { spec; crash_at = None; completed = uncrashed.completed; violations };
    }
  | [] ->
    let failure = List.find_map (fun (b, t) -> failure_at spec b t) trials in
    { spec; persists; boundaries_tested = List.length bs; failure }

(* Specs are independent jobs: each builds its own two worlds (the run
   and its twin); the counting pass builds none. *)
let run_campaign ?pool ?budget specs = Pool.map pool (fun spec -> run_spec ?budget spec) specs

(* ------------------------------------------------------------------ *)
(* Shrinking.                                                         *)

(* Earliest failing boundary of [spec], scanning from 1 (capped): one
   forked run, stopping at the first failure. *)
let first_failing spec ~cap =
  let persists = count_persists spec in
  let found = ref None in
  match
    fork_run spec (List.init (Int.min persists cap) (fun i -> i + 1)) ~at:(fun b t ->
      found := failure_at spec b t;
      Option.is_some !found)
  with
  | None -> !found
  | Some (uncrashed, unreached) ->
    let t = with_persists ~persists uncrashed in
    List.find_map (fun b -> failure_at spec b t) unreached

let shrink fail =
  match fail.crash_at with
  | None -> fail  (* an uncrashed-run failure has no schedule to minimise *)
  | Some _ ->
    let cap = 64 in
    (* Ops after the in-flight one never ran; drop them outright. *)
    let start_ops = Int.min fail.spec.n_ops (fail.completed + 1) in
    let current = ref { fail with spec = { fail.spec with n_ops = start_ops } } in
    (match first_failing !current.spec ~cap with
     | Some f -> current := f
     | None -> current := fail);
    let continue_ = ref true in
    while !continue_ do
      let n = !current.spec.n_ops in
      let candidates = List.filter (fun n' -> n' >= 1 && n' < n) [ n / 2; n - 1 ] in
      match
        List.find_map
          (fun n' -> first_failing { !current.spec with n_ops = n' } ~cap)
          candidates
      with
      | Some f -> current := f
      | None -> continue_ := false
    done;
    !current

(* ------------------------------------------------------------------ *)
(* Reproducer files.                                                  *)

let write_reproducer path (fail : failure) =
  Repro_file.write path
    ~header:(Printf.sprintf "skipit_sim audit reproducer (replay: skipit_sim audit --repro %s)" path)
    ~notes:(List.map (( ^ ) "violation: ") fail.violations)
    ([
       ("structure", structure_name fail.spec.structure);
       ("mode", Pctx.mode_name fail.spec.mode);
       ("strategy", Ds_bench.spec_name fail.spec.strategy);
       ("fault", fault_name fail.spec.fault);
       ("seed", string_of_int fail.spec.seed);
       ("ops", string_of_int fail.spec.n_ops);
     ]
     @ (if fail.spec.l2_banks = 1 then [] else [ ("l2_banks", string_of_int fail.spec.l2_banks) ])
     @ [ ("crash_at", string_of_int (match fail.crash_at with Some b -> b | None -> 0)) ])

let read_reproducer path =
  let ( let* ) = Result.bind in
  let* r = Repro_file.read path in
  let* structure = Repro_file.parse r "structure" structure_of_name in
  let* mode = Repro_file.parse r "mode" Pctx.mode_of_name in
  let* strategy = Repro_file.parse r "strategy" Ds_bench.spec_of_name in
  let* fault = Repro_file.parse r "fault" fault_of_name in
  let* seed = Repro_file.int r "seed" in
  let* n_ops = Repro_file.int r "ops" in
  let* () = if n_ops < 1 then Error "ops must be at least 1" else Ok () in
  let* l2_banks =
    match Repro_file.find r "l2_banks" with None -> Ok 1 | Some _ -> Repro_file.int r "l2_banks"
  in
  let* () =
    if l2_banks < 1 || l2_banks land (l2_banks - 1) <> 0 then
      Error "l2_banks must be a power of two >= 1"
    else Ok ()
  in
  let* crash_at = Repro_file.int r "crash_at" in
  let* () = if crash_at < 0 then Error "crash_at must be non-negative" else Ok () in
  let spec = { structure; mode; strategy; fault; seed; n_ops; l2_banks } in
  let* () =
    if compatible spec then Ok ()
    else
      Error
        (Printf.sprintf "strategy %s cannot be crash-tested on %s" (Ds_bench.spec_name strategy)
           (structure_name structure))
  in
  Ok
    {
      spec;
      crash_at = (if crash_at > 0 then Some crash_at else None);
      completed = 0;
      violations = [];
    }

let pp_report ppf r =
  match r.failure with
  | None ->
    Format.fprintf ppf "PASS %-50s %3d persists, %2d boundaries" (spec_name r.spec)
      r.persists r.boundaries_tested
  | Some f ->
    Format.fprintf ppf "FAIL %-50s crash_at=%s (%d violation(s)):" (spec_name r.spec)
      (match f.crash_at with Some b -> string_of_int b | None -> "-")
      (List.length f.violations);
    List.iter (fun v -> Format.fprintf ppf "@,       %s" v) f.violations
