module Instr = Skipit_cpu.Instr
module Lsu = Skipit_cpu.Lsu
open Effect
open Effect.Deep

type request = Exec of Instr.t | Get_now | Get_core

type _ Effect.t += Mem : request -> int Effect.t

let perform_req r = perform (Mem r)

let load addr = perform_req (Exec (Instr.Load { addr }))
let store addr value = ignore (perform_req (Exec (Instr.Store { addr; value })))
let cas addr ~expected ~desired = perform_req (Exec (Instr.Cas { addr; expected; desired })) = 1
let clean addr = ignore (perform_req (Exec (Instr.Cbo_clean { addr })))
let flush addr = ignore (perform_req (Exec (Instr.Cbo_flush { addr })))
let inval addr = ignore (perform_req (Exec (Instr.Cbo_inval { addr })))
let zero addr = ignore (perform_req (Exec (Instr.Cbo_zero { addr })))
let fence () = ignore (perform_req (Exec Instr.Fence))
let delay n = ignore (perform_req (Exec (Instr.Delay n)))
let now () = perform_req Get_now
let core_id () = perform_req Get_core

type task = { core : int; body : unit -> unit }

type status = Done | Blocked of request * (int, status) continuation

type fiber = { fcore : int; mutable status : status }

let start body =
  match_with body ()
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Mem r -> Some (fun (k : (a, status) continuation) -> Blocked (r, k))
          | _ -> None);
    }

let run_loop system ~stop tasks =
  let fibers = Array.of_list (List.map (fun t -> { fcore = t.core; status = start t.body }) tasks) in
  let n = Array.length fibers in
  (* Timestamp-ordered scheduling: always advance the fiber whose core clock
     is smallest, so cross-core state mutations happen in global time
     order.  The scan is a plain array sweep — no per-instruction list
     rebuild — and ties go to the lowest task index, matching the old
     filter-then-fold order. *)
  let live = ref 0 in
  Array.iter (fun f -> match f.status with Blocked _ -> incr live | Done -> ()) fibers;
  let pick () =
    let best = ref (-1) in
    let best_clock = ref max_int in
    for i = 0 to n - 1 do
      let f = Array.unsafe_get fibers i in
      match f.status with
      | Done -> ()
      | Blocked _ ->
        let c = Lsu.clock (System.lsu system f.fcore) in
        if !best < 0 || c < !best_clock then begin
          best := i;
          best_clock := c
        end
    done;
    !best
  in
  let rec loop () =
    if !live = 0 then `Completed (System.max_clock system)
    else if stop () then
      (* Crash point: abandon every blocked fiber mid-instruction.  The
         one-shot continuations are simply dropped (safe to GC); whatever
         the tasks were about to do next never happens — exactly a power
         failure at instruction granularity. *)
      `Stopped (System.max_clock system)
    else begin
      let fiber = fibers.(pick ()) in
      (match fiber.status with
       | Done -> assert false
       | Blocked (req, k) ->
         let lsu = System.lsu system fiber.fcore in
         let answer =
           match req with
           | Exec i -> Lsu.exec lsu i
           | Get_now -> Lsu.clock lsu
           | Get_core -> fiber.fcore
         in
         System.maybe_audit system;
         fiber.status <- continue k answer;
         match fiber.status with Done -> decr live | Blocked _ -> ());
      loop ()
    end
  in
  loop ()

let never_stop () = false

let run system tasks =
  match run_loop system ~stop:never_stop tasks with
  | `Completed c -> c
  | `Stopped _ -> assert false

let run_until system ~stop tasks = run_loop system ~stop tasks

let run_task system f =
  let r = ref None in
  ignore (run system [ { core = 0; body = (fun () -> r := Some (f ())) } ]);
  Option.get !r
