module S = Skipit_core.System
module T = Skipit_core.Thread
module C = Skipit_core.Config

let make ?(cores = 2) () = S.create (C.platform ~cores ())
let line sys = Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64

let test_single_task () =
  let sys = make () in
  let a = line sys in
  let seen = ref 0 in
  let final =
    T.run sys
      [ { T.core = 0; body = (fun () -> T.store a 9; seen := T.load a) } ]
  in
  Alcotest.(check int) "value flows" 9 !seen;
  Alcotest.(check bool) "time advanced" true (final > 0)

let test_now_per_core () =
  let sys = make () in
  let seen = ref [] in
  ignore
    (T.run sys
       (List.init 2 (fun core ->
          {
            T.core;
            body =
              (fun () ->
                (* Bind effects first: [!seen] must be read after the last
                   suspension point or concurrent fibers lose updates. *)
                T.delay (100 * (core + 1));
                let t = T.now () in
                seen := (core, t) :: !seen);
          })));
  Alcotest.(check (list (pair int int))) "each task reads its own core's clock"
    [ 0, 100; 1, 200 ] (List.sort compare !seen)

let test_timestamp_ordering () =
  (* The slow thread's store at t~1000 must land after the fast thread's at
     t~0 — observable as the final value. *)
  let sys = make () in
  let a = line sys in
  let order = ref [] in
  ignore
    (T.run sys
       [
         {
           T.core = 0;
           body = (fun () -> T.delay 1000; T.store a 1; order := 1 :: !order);
         };
         { T.core = 1; body = (fun () -> T.store a 2; order := 2 :: !order) };
       ]);
  Alcotest.(check (list int)) "min-clock-first execution" [ 1; 2 ] !order;
  Alcotest.(check int) "later store wins" 1 (S.peek_word sys a)

let test_two_tasks_one_core () =
  let sys = make ~cores:1 () in
  let a = line sys in
  ignore
    (T.run sys
       [
         { T.core = 0; body = (fun () -> for _ = 1 to 10 do T.store a 1 done) };
         { T.core = 0; body = (fun () -> for _ = 1 to 10 do T.store a 2 done) };
       ]);
  Alcotest.(check bool) "completed" true (List.mem (S.peek_word sys a) [ 1; 2 ])

let test_fence_and_flush_in_thread () =
  let sys = make () in
  let a = line sys in
  ignore
    (T.run sys
       [
         {
           T.core = 0;
           body =
             (fun () ->
               T.store a 5;
               T.clean a;
               T.fence ());
         };
       ]);
  Alcotest.(check int) "persisted from a task" 5 (S.persisted_word sys a)

let test_cas_in_thread () =
  let sys = make () in
  let a = line sys in
  let wins = ref 0 in
  ignore
    (T.run sys
       (List.init 2 (fun core ->
          {
            T.core;
            body =
              (fun () ->
                if T.cas a ~expected:0 ~desired:(core + 1) then incr wins);
          })));
  Alcotest.(check int) "exactly one CAS wins" 1 !wins

let test_exception_propagates () =
  let sys = make () in
  Alcotest.check_raises "body exception escapes run" Exit (fun () ->
    ignore (T.run sys [ { T.core = 0; body = (fun () -> raise Exit) } ]))

let test_delay_advances_clock () =
  let sys = make ~cores:1 () in
  let t = ref 0 in
  ignore (T.run sys [ { T.core = 0; body = (fun () -> T.delay 500; t := T.now ()) } ]);
  Alcotest.(check bool) "delay counted" true (!t >= 500)

let test_many_tasks_progress () =
  (* 8 cores contending on one line: all must terminate and agree. *)
  let sys = make ~cores:8 () in
  let a = line sys in
  let total = ref 0 in
  ignore
    (T.run sys
       (List.init 8 (fun core ->
          {
            T.core;
            body =
              (fun () ->
                for _ = 1 to 20 do
                  (* Atomic increment via CAS retry. *)
                  let rec bump () =
                    let v = T.load a in
                    if not (T.cas a ~expected:v ~desired:(v + 1)) then bump ()
                  in
                  bump ()
                done;
                incr total);
          })));
  Alcotest.(check int) "all ran" 8 !total;
  Alcotest.(check int) "atomic counter exact" 160 (S.peek_word sys a);
  Structural.check sys

let instructions sys =
  List.fold_left (fun acc c -> acc + Skipit_cpu.Lsu.instructions (S.lsu sys c)) 0
    (List.init (S.n_cores sys) Fun.id)

(* Fibers whose clocks interleave: some requests run in place, others hand
   off.  Memory instructions only, so dispatches = instructions retired.
   With three fibers, two share core 0. *)
let interleaved nfibers =
  let sys = make () in
  let a = line sys in
  let task i =
    {
      T.core = i mod 2;
      body =
        (fun () ->
          for j = 1 to 6 do
            T.delay (1 + (((i * 7) + (j * 5)) mod 13));
            T.store a ((10 * i) + j);
            ignore (T.load a)
          done);
    }
  in
  sys, List.init nfibers task

(* [stop] is consulted exactly once per dispatch, also when the request
   that consulted it hands off.  A predicate that fires only on its n-th
   call (so a second call for the same dispatch would let the run go on)
   must stop the run after n - 1 dispatches: the count is the number of
   dispatches plus the final check.  A run that completes makes one call
   per dispatch and none after the last task finishes. *)
let test_stop_consulted_once () =
  List.iter
    (fun nfibers ->
      let sys, tasks = interleaved nfibers in
      let calls = ref 0 in
      (match T.run_until sys ~stop:(fun () -> incr calls; false) tasks with
       | `Completed _ -> ()
       | `Stopped _ -> Alcotest.fail "never-firing predicate stopped the run");
      let total = instructions sys in
      Alcotest.(check int) (Printf.sprintf "%d fiber(s): one call per dispatch" nfibers) total
        !calls;
      for n = 1 to total do
        let sys, tasks = interleaved nfibers in
        let calls = ref 0 in
        match T.run_until sys ~stop:(fun () -> incr calls; !calls = n) tasks with
        | `Completed _ ->
          Alcotest.failf "%d fiber(s): predicate fired at call %d but the run completed"
            nfibers n
        | `Stopped _ ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%d fiber(s), stop at call %d: calls, dispatches" nfibers n)
            (n, n - 1) (!calls, instructions sys)
      done)
    [ 1; 3 ]

(* [fibers] tasks (one: a lone [run_task]) bumping one counter with CAS on
   a fresh 3-core system.  Task 0 calls [first] after its first bump and
   [last] after its final one. *)
let counter_run ?(first = ignore) ?(last = ignore) ~fibers () =
  let sys = make ~cores:3 () in
  let a = line sys in
  let body core () =
    for i = 1 to 400 do
      let rec bump () =
        let v = T.load a in
        if not (T.cas a ~expected:v ~desired:(v + 1)) then bump ()
      in
      bump ();
      if core = 0 && i = 1 then first ()
    done;
    if core = 0 then last ()
  in
  let clock =
    if fibers = 1 then begin
      T.run_task sys (body 0);
      S.max_clock sys
    end
    else T.run sys (List.init fibers (fun core -> { T.core; body = body core }))
  in
  clock, S.peek_word sys a, instructions sys

(* A two-party barrier.  It gives up after a bounded spin, so a pool that
   ran both jobs on one domain could not hang the test. *)
let barrier () =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    let spins = ref 0 in
    while Atomic.get arrived < 2 && !spins < 100_000_000 do
      Domain.cpu_relax ();
      incr spins
    done

(* The running scheduler is domain-local: two runs on two pool domains,
   both inside their runs at once from the first bump to the last, give
   their sequential results.  Covers lone and three-fiber runs. *)
let test_runs_on_two_domains () =
  List.iter
    (fun fibers ->
      let sequential = counter_run ~fibers () in
      let first = barrier () and last = barrier () in
      let results =
        Skipit_par.Pool.with_pool ~jobs:2 (fun pool ->
          Skipit_par.Pool.map (Some pool)
            (fun () -> counter_run ~first ~last ~fibers ())
            [ (); () ])
      in
      List.iter
        (fun r ->
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%d fiber(s): parallel run = sequential run" fibers)
            sequential r)
        results)
    [ 1; 3 ]

let load_outside_run_unhandled what =
  match T.load 0 with
  | _ -> Alcotest.failf "T.load outside any run returned (%s)" what
  | exception Effect.Unhandled _ -> ()

(* Runs nest: a [run_task] on a second system, from inside a task body or
   from a stop predicate, leaves the outer run exactly as it would be
   without it, and the context is gone once the outer run returns (also
   when it raises). *)
let test_nested_runs_restore_context () =
  let outer ~nest =
    let sys = make () in
    let a = line sys in
    let sys2 = make ~cores:1 () in
    let b = line sys2 in
    let inner () =
      if nest then
        T.run_task sys2 (fun () ->
          T.store b (T.load b + 1);
          ignore (T.now ()))
    in
    let seen = ref [] in
    let task core =
      {
        T.core;
        body =
          (fun () ->
            for i = 1 to 10 do
              T.store a ((100 * core) + i);
              if i = 5 then inner ();
              T.delay (3 + core);
              seen := T.load a :: !seen
            done);
      }
    in
    let r =
      T.run_until sys ~stop:(fun () -> inner (); false) (List.init 2 task)
    in
    (r, List.rev !seen, instructions sys), S.peek_word sys2 b
  in
  let plain, _ = outer ~nest:false in
  let nested, inner_count = outer ~nest:true in
  Alcotest.(check bool) "outer run unchanged by nested runs" true (plain = nested);
  Alcotest.(check bool) "nested runs executed" true (inner_count > 2);
  load_outside_run_unhandled "after nested runs";
  (match
     T.run (make ())
       [
         { T.core = 0; body = (fun () -> ignore (T.load 0); raise Exit) };
         { T.core = 1; body = (fun () -> ignore (T.load 0)) };
       ]
   with
   | _ -> Alcotest.fail "run swallowed the body's exception"
   | exception Exit -> ());
  load_outside_run_unhandled "after a run that raised";
  (match T.run_task (make ()) (fun () -> ignore (T.load 0); raise Exit) with
   | () -> Alcotest.fail "run_task swallowed the body's exception"
   | exception Exit -> ());
  load_outside_run_unhandled "after a run_task that raised"

exception Boom

(* Instructions and stop checks may run on a task's own stack, so an
   exception the hierarchy or a [run_until] predicate raises passes
   through the task body.  No structure's operation may swallow one
   (Skiplist catches only its own [Retry]): a predicate that raises at
   its k-th consultation, mid-operation on two concurrent threads, must
   end the run with that exception. *)
let test_hierarchy_exceptions_escape_bodies () =
  let module Ops = Skipit_pds.Set_ops in
  let module Pctx = Skipit_persist.Pctx in
  let setup kind =
    let sys = S.create (C.platform ~cores:2 ~skip_it:true ()) in
    let pctx = Pctx.make (Skipit_persist.Strategy.plain ()) Pctx.Nvtraverse in
    let h = T.run_task sys (fun () -> Ops.create_sized kind ~buckets:4 pctx (S.allocator sys)) in
    let worker core =
      {
        T.core;
        body =
          (fun () ->
            let rng = Skipit_sim.Rng.create ~seed:(7 + core) in
            for _ = 1 to 60 do
              let key = 1 + Skipit_sim.Rng.int rng 24 in
              match Skipit_sim.Rng.int rng 3 with
              | 0 -> ignore (h.Ops.insert pctx key)
              | 1 -> ignore (h.Ops.delete pctx key)
              | _ -> ignore (h.Ops.contains pctx key)
            done);
      }
    in
    sys, [ worker 0; worker 1 ]
  in
  List.iter
    (fun kind ->
      let sys, tasks = setup kind in
      let consulted = ref 0 in
      ignore (T.run_until sys ~stop:(fun () -> incr consulted; false) tasks);
      let total = !consulted in
      List.iter
        (fun k ->
          let sys, tasks = setup kind in
          let n = ref 0 in
          let stop () = incr n; if !n = k then raise Boom else false in
          match T.run_until sys ~stop tasks with
          | _ ->
            Alcotest.failf "%s: the exception raised at consultation %d of %d was swallowed"
              (Ops.kind_name kind) k total
          | exception Boom -> ())
        (List.init 8 (fun i -> 1 + (i * (total - 1) / 7))))
    Ops.all_kinds

let tests =
  ( "thread",
    [
      Alcotest.test_case "single task" `Quick test_single_task;
      Alcotest.test_case "now reads each core's clock" `Quick test_now_per_core;
      Alcotest.test_case "timestamp ordering" `Quick test_timestamp_ordering;
      Alcotest.test_case "two tasks, one core" `Quick test_two_tasks_one_core;
      Alcotest.test_case "flush+fence in task" `Quick test_fence_and_flush_in_thread;
      Alcotest.test_case "cas race has one winner" `Quick test_cas_in_thread;
      Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
      Alcotest.test_case "8-core atomic counter" `Quick test_many_tasks_progress;
      Alcotest.test_case "stop consulted once per dispatch" `Quick test_stop_consulted_once;
      Alcotest.test_case "runs on two domains at once" `Quick test_runs_on_two_domains;
      Alcotest.test_case "nested runs restore the context" `Quick
        test_nested_runs_restore_context;
      Alcotest.test_case "hierarchy exceptions escape task bodies" `Quick
        test_hierarchy_exceptions_escape_bodies;
    ] )
