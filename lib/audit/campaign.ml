module S = Skipit_core.System
module C = Skipit_core.Config
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Strategy = Skipit_persist.Strategy
module Pctx = Skipit_persist.Pctx
module Ops = Skipit_pds.Set_ops
module MQ = Skipit_pds.Ms_queue
module PL = Skipit_mem.Persist_log
module Rng = Skipit_sim.Rng
module Pool = Skipit_par.Pool

(* ------------------------------------------------------------------ *)
(* Campaign dimensions.                                               *)

type structure = Queue | Set of Ops.kind

let all_structures = Queue :: List.map (fun k -> Set k) Ops.all_kinds
let structure_name = function Queue -> "ms-queue" | Set k -> Ops.kind_name k

let structure_of_name name =
  List.find_opt (fun s -> structure_name s = name) all_structures

type strategy_spec = Plain | Skipit | Flit_adjacent | Link_and_persist

let all_strategies = [ Plain; Skipit; Flit_adjacent; Link_and_persist ]

let strategy_name = function
  | Plain -> "plain"
  | Skipit -> "skip-it"
  | Flit_adjacent -> "flit-adjacent"
  | Link_and_persist -> "link-and-persist"

let strategy_of_name name =
  List.find_opt (fun s -> strategy_name s = name) all_strategies

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
  strategy : strategy_spec;
  fault : fault;
  seed : int;
  n_ops : int;
}

let spec_name s =
  Printf.sprintf "%s/%s/%s%s seed=%d ops=%d" (structure_name s.structure)
    (Pctx.mode_name s.mode) (strategy_name s.strategy)
    (match s.fault with No_fault -> "" | f -> "+" ^ fault_name f)
    s.seed s.n_ops

let uses_word_bits = function Queue -> false | Set k -> Ops.uses_word_bits k

let compatible s =
  not (uses_word_bits s.structure && s.strategy = Link_and_persist)

let default_specs ~seed ~n_ops ~fault =
  List.concat_map
    (fun structure ->
      List.concat_map
        (fun mode ->
          List.filter_map
            (fun strategy ->
              let s = { structure; mode; strategy; fault; seed; n_ops } in
              if compatible s then Some s else None)
            [ Plain; Skipit ])
        Pctx.all_modes)
    all_structures

(* ------------------------------------------------------------------ *)
(* Strategy realization and fault injection.                          *)

let wants_skip_it_hw = function Skipit -> true | Plain | Flit_adjacent | Link_and_persist -> false

let realize_strategy spec =
  match spec.strategy with
  | Plain -> Strategy.plain ()
  | Skipit -> Strategy.skipit_hw ()
  | Flit_adjacent -> Strategy.flit_adjacent ()
  | Link_and_persist -> Strategy.link_and_persist ()

(* The seeded-fault wrapper: silently elide required store-side writebacks.
   Exactly the bug class FliT frames — one missing flush breaking durable
   linearizability — and what the campaign must demonstrably catch. *)
let apply_fault fault (s : Strategy.t) =
  match fault with
  | No_fault -> s
  | Drop_all_persists ->
    { s with name = s.name ^ "+" ^ fault_name fault; persist_store = (fun _ -> ()) }
  | Drop_nth_persist n ->
    let calls = ref 0 in
    {
      s with
      name = s.name ^ "+" ^ fault_name fault;
      persist_store =
        (fun addr ->
          incr calls;
          if !calls <> n then s.persist_store addr);
    }

(* ------------------------------------------------------------------ *)
(* Deterministic op schedules and the sequential oracle.              *)

type set_op = Insert of int | Delete of int | Contains of int
type queue_op = Enqueue of int | Dequeue

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

let build_system ?(l2_banks = 1) spec =
  let params =
    { (C.tiny ~cores:1 ()) with Params.skip_it = wants_skip_it_hw spec.strategy; l2_banks }
  in
  S.create params

(* Replay the completed prefix of the schedule on the host-side model. *)
let set_model ops ~completed =
  let model = Hashtbl.create 64 in
  Array.iteri
    (fun i op ->
      if i < completed then
        match op with
        | Insert k -> Hashtbl.replace model k true
        | Delete k -> Hashtbl.replace model k false
        | Contains _ -> ())
    ops;
  model

let queue_model ops ~completed =
  let q = ref [] in
  Array.iteri
    (fun i op ->
      if i < completed then
        match op with
        | Enqueue v -> q := !q @ [ v ]
        | Dequeue -> (match !q with [] -> () | _ :: t -> q := t))
    ops;
  !q

let verify_set (h : Ops.handle) p sys ops ~completed =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  ignore (T.run_task sys (fun () -> h.Ops.repair p));
  let snap = h.Ops.snapshot sys in
  let model = set_model ops ~completed in
  let pending_key =
    if completed < Array.length ops then
      match ops.(completed) with Insert k | Delete k -> Some k | Contains _ -> None
    else None
  in
  let touched = Hashtbl.create 64 in
  Array.iteri
    (fun i (Insert k | Delete k | Contains k) ->
      if i <= completed then Hashtbl.replace touched k ())
    ops;
  List.iter
    (fun k ->
      if not (Hashtbl.mem touched k) then
        add "phantom element %d in post-crash snapshot (never inserted)" k)
    snap;
  Hashtbl.iter
    (fun k present ->
      if Some k <> pending_key then
        if present && not (List.mem k snap) then
          add "durably-inserted key %d lost after crash+repair" k
        else if (not present) && List.mem k snap then
          add "durably-deleted key %d resurrected after crash+repair" k)
    model;
  List.rev !out

let verify_queue q p sys ops ~completed =
  ignore (T.run_task sys (fun () -> MQ.repair q p));
  let snap = MQ.to_list_unsafe q sys in
  let base = queue_model ops ~completed in
  let pending = if completed < Array.length ops then Some ops.(completed) else None in
  let acceptable =
    match pending with
    | Some (Enqueue v) -> [ base; base @ [ v ] ]
    | Some Dequeue -> [ base; (match base with [] -> [] | _ :: t -> t) ]
    | None -> [ base ]
  in
  if List.mem snap acceptable then []
  else
    [
      Printf.sprintf "queue mismatch after crash+repair: got [%s], expected [%s]%s"
        (String.concat "; " (List.map string_of_int snap))
        (String.concat "; " (List.map string_of_int base))
        (match pending with
         | Some (Enqueue v) -> Printf.sprintf " (or with pending enqueue %d)" v
         | Some Dequeue -> " (or with pending dequeue applied)"
         | None -> "");
    ]

(* Everything a trial mutates, in one record: the three stages below
   ([build], [run], [finish]) touch nothing else, which is what lets a
   crash trial run on a copy taken mid-run (see [copy]). *)
type world = {
  sys : S.t;
  p : Pctx.t;  (* the realized strategy, counting its persist points *)
  target : target;
  auditor : Auditor.t;
  persist_points : int ref;
  mutable completed : int;
}

let build ?(audit_every = 400) ?l2_banks spec =
  let sys = build_system ?l2_banks spec in
  let strategy = apply_fault spec.fault (realize_strategy spec) in
  (* Crash boundaries count persist-point *calls*, not persist-log events:
     a fault that elides the writeback must not also elide the boundary
     that would expose it.  The counter increments after the call returns,
     so an honest flush has already issued (and, under eager timing, its
     data is durable) when the crash lands at the next dispatch. *)
  let persist_points = ref 0 in
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
  let auditor = Auditor.create sys in
  Auditor.attach auditor ~every:audit_every;
  {
    sys;
    p = Pctx.make counted spec.mode;
    target = gen_target spec;
    auditor;
    persist_points;
    completed = 0;
  }

let system w = w.sys
let persist_points w = !(w.persist_points)

let body w () =
  let alloc = S.allocator w.sys in
  let completed () = w.completed <- w.completed + 1 in
  match w.target with
  | Set_target t ->
    let h = Ops.create_sized t.kind ~buckets:4 w.p alloc in
    t.set <- Some h;
    Array.iter
      (fun op ->
        (match op with
         | Insert k -> ignore (h.Ops.insert w.p k)
         | Delete k -> ignore (h.Ops.delete w.p k)
         | Contains k -> ignore (h.Ops.contains w.p k));
        completed ())
      t.set_ops
  | Queue_target t ->
    let q = MQ.create w.p alloc in
    t.queue <- Some q;
    Array.iter
      (fun op ->
        (match op with Enqueue v -> MQ.enqueue q w.p v | Dequeue -> ignore (MQ.dequeue q w.p));
        completed ())
      t.queue_ops

let run w ~stop =
  match T.run_until w.sys ~stop [ { T.core = 0; body = body w } ] with
  | `Stopped _ -> true
  | `Completed _ -> false

let finish w ~crashed =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let note_invariants ~quiesced =
    List.iter
      (fun v -> add (Invariant.violation_to_string v))
      (Invariant.check_all ~quiesced w.sys)
  in
  if crashed then begin
    S.crash w.sys;
    Auditor.note_crash w.auditor;
    (* Post-crash, pre-repair: the crash must leave the machinery clean. *)
    note_invariants ~quiesced:true;
    match w.target with
    | Set_target { set = None; _ } | Queue_target { queue = None; _ } ->
      ()  (* crashed during construction: nothing was promised *)
    | Set_target { set = Some h; set_ops; _ } ->
      List.iter add (verify_set h w.p w.sys set_ops ~completed:w.completed)
    | Queue_target { queue = Some q; queue_ops } ->
      List.iter add (verify_queue q w.p w.sys queue_ops ~completed:w.completed)
  end
  else begin
    (* Uncrashed run: quiesced structural + conservation + oracle checks. *)
    ignore (Auditor.observe w.auditor);
    note_invariants ~quiesced:true;
    match w.target with
    | Set_target { set = Some h; set_ops; _ } ->
      let snap = h.Ops.snapshot w.sys in
      let model = set_model set_ops ~completed:w.completed in
      Hashtbl.iter
        (fun k present ->
          if present <> List.mem k snap then
            add
              (Printf.sprintf "uncrashed run: key %d %s" k
                 (if present then "missing" else "present-but-deleted")))
        model
    | Queue_target { queue = Some q; queue_ops } ->
      let snap = MQ.to_list_unsafe q w.sys in
      let want = queue_model queue_ops ~completed:w.completed in
      if snap <> want then
        add
          (Printf.sprintf "uncrashed run: queue [%s], expected [%s]"
             (String.concat "; " (List.map string_of_int snap))
             (String.concat "; " (List.map string_of_int want)))
    | Set_target { set = None; _ } | Queue_target { queue = None; _ } ->
      add "uncrashed run never constructed the structure"
  end;
  List.iter
    (fun v -> add ("audit: " ^ Invariant.violation_to_string v))
    (Auditor.failures w.auditor);
  {
    persists = !(w.persist_points);
    crashed;
    completed = w.completed;
    violations = List.rev !violations;
  }

let run_trial ?audit_every ?l2_banks spec ~crash_at =
  let w = build ?audit_every ?l2_banks spec in
  let stop =
    match crash_at with
    | None -> fun () -> false
    | Some b -> fun () -> !(w.persist_points) >= b
  in
  finish w ~crashed:(run w ~stop)

(* ------------------------------------------------------------------ *)
(* Forked crash trials.                                               *)

(* A deep copy of a world paused between dispatches.  Marshalling with
   [Closures] copies everything reachable as one graph, so the sharing
   between [sys], the audit hook's closure, the structure handle and the
   persist-point counter holds in the copy.  The image records code
   pointers and is only valid in the process that made it.  [fork_run]
   freezes from its stop predicate, which may now run on the task's own
   stack (inline dispatch); that changes nothing here: no world reaches a
   fiber continuation or the scheduler's context (the scheduler alone
   holds those, in domain-local state), so nothing in it is
   unmarshallable. *)
let freeze (w : world) = Marshal.to_string w [ Marshal.Closures ]
let thaw image : world = Marshal.from_string image 0
let copy w = thaw (freeze w)

(* One run of [spec] that never stops on its own.  At the first dispatch
   where the persist-point count reaches each boundary of the ascending
   list [bs], [at b image] gets an image of the world exactly as a replay
   with [~crash_at:(Some b)] would stop it; [at] returning [true] ends the
   run there.  A boundary first reached after the last dispatch is never
   stopped at by a replay either: those come back with the uncrashed
   trial of this run, which is what the replay reports for them. *)
let fork_run ?l2_banks spec bs ~at =
  let w = build ?l2_banks spec in
  let pending = ref bs in
  let rec reached image =
    match !pending with
    | b :: rest when !(w.persist_points) >= b ->
      pending := rest;
      let image = match image with Some i -> i | None -> freeze w in
      at b image || reached (Some image)
    | _ -> false
  in
  if run w ~stop:(fun () -> reached None) then []
  else
    match !pending with
    | [] -> []
    | unreached ->
      let t = finish w ~crashed:false in
      List.map (fun b -> b, t) unreached

let crash_trials ?pool ?l2_banks spec bs =
  let images = ref [] in
  let unreached =
    fork_run ?l2_banks spec bs ~at:(fun b image ->
      images := (b, image) :: !images;
      false)
  in
  Pool.run_chunked_opt ~chunk:1 pool
    (fun (b, image) -> b, finish (thaw image) ~crashed:true)
    (List.rev !images)
  @ unreached

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

let boundaries ~persists ~budget ~seed =
  if persists <= 0 then []
  else if persists <= budget then List.init persists (fun i -> i + 1)
  else begin
    let rng = Rng.create ~seed:(seed lxor 0x5EED) in
    let picks = Hashtbl.create budget in
    Hashtbl.replace picks 1 ();
    Hashtbl.replace picks persists ();
    while Hashtbl.length picks < budget do
      Hashtbl.replace picks (1 + Rng.int rng persists) ()
    done;
    List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) picks [])
  end

let run_spec ?pool ?(budget = 20) ?l2_banks spec =
  let full = run_trial ?l2_banks spec ~crash_at:None in
  match full.violations with
  | _ :: _ ->
    {
      spec;
      persists = full.persists;
      boundaries_tested = 0;
      failure =
        Some { spec; crash_at = None; completed = full.completed; violations = full.violations };
    }
  | [] ->
    let bs = boundaries ~persists:full.persists ~budget ~seed:spec.seed in
    let trials = crash_trials ?pool ?l2_banks spec bs in
    let failure = List.find_map (fun (b, t) -> failure_at spec b t) trials in
    { spec; persists = full.persists; boundaries_tested = List.length bs; failure }

let run_campaign ?pool ?budget ?l2_banks specs =
  (* Parallelism lives inside each spec (its crash boundaries fan out over
     the pool); specs run in sequence so reports stay in submission order
     with bounded memory. *)
  List.map (fun spec -> run_spec ?pool ?budget ?l2_banks spec) specs

(* ------------------------------------------------------------------ *)
(* Shrinking.                                                         *)

(* Earliest failing boundary of [spec], scanning from 1 (capped): one
   forked run, finishing each copy as it is taken and stopping at the
   first failure. *)
let first_failing spec ~cap =
  let full = run_trial spec ~crash_at:None in
  let found = ref None in
  let unreached =
    fork_run spec (List.init (min full.persists cap) (fun i -> i + 1)) ~at:(fun b image ->
      found := failure_at spec b (finish (thaw image) ~crashed:true);
      Option.is_some !found)
  in
  match !found with
  | Some _ as f -> f
  | None -> List.find_map (fun (b, t) -> failure_at spec b t) unreached

let shrink fail =
  match fail.crash_at with
  | None -> fail  (* an uncrashed-run failure has no schedule to minimise *)
  | Some _ ->
    let cap = 64 in
    (* Ops after the in-flight one never ran; drop them outright. *)
    let start_ops = min fail.spec.n_ops (fail.completed + 1) in
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
    [
      ("structure", structure_name fail.spec.structure);
      ("mode", Pctx.mode_name fail.spec.mode);
      ("strategy", strategy_name fail.spec.strategy);
      ("fault", fault_name fail.spec.fault);
      ("seed", string_of_int fail.spec.seed);
      ("ops", string_of_int fail.spec.n_ops);
      ("crash_at", string_of_int (match fail.crash_at with Some b -> b | None -> 0));
    ]

let read_reproducer path =
  let ( let* ) = Result.bind in
  let* r = Repro_file.read path in
  let* structure = Repro_file.parse r "structure" structure_of_name in
  let* mode = Repro_file.parse r "mode" Pctx.mode_of_name in
  let* strategy = Repro_file.parse r "strategy" strategy_of_name in
  let* fault = Repro_file.parse r "fault" fault_of_name in
  let* seed = Repro_file.int r "seed" in
  let* n_ops = Repro_file.int r "ops" in
  let* () = if n_ops < 1 then Error "ops must be at least 1" else Ok () in
  let* crash_at = Repro_file.int r "crash_at" in
  let* () = if crash_at < 0 then Error "crash_at must be non-negative" else Ok () in
  Ok
    {
      spec = { structure; mode; strategy; fault; seed; n_ops };
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
