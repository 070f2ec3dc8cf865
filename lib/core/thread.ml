module Instr = Skipit_cpu.Instr
module Lsu = Skipit_cpu.Lsu
open Effect
open Effect.Deep

type request = Exec of Instr.t | Get_now

type never = |

(* Performed only to leave the running fiber.  [Mem] hands the scheduler a
   request it must not run in place (another fiber is earlier, or the tasks
   are still being started); [Halt] abandons the run because [stop] fired. *)
type _ Effect.t += Mem : request -> int Effect.t | Halt : never Effect.t

(* The run in progress on this domain, as task code sees it.  The first
   [live] entries of [lsus] are the unfinished tasks' LSUs in task order;
   [cur] indexes the running one, whose LSU is cached in [lsu].  [started]
   is false while the tasks are being started. *)
type ctx = {
  stop : (unit -> bool) option;
  mutable lsus : Lsu.t array;
  mutable live : int;
  mutable cur : int;
  mutable lsu : Lsu.t;
  mutable started : bool;
}

let current : ctx option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* Install [c] for the duration of [f], restoring the enclosing run's
   context afterwards (also on exception): runs nest. *)
let with_ctx c f =
  let slot = Domain.DLS.get current in
  let outer = !slot in
  slot := Some c;
  Fun.protect ~finally:(fun () -> slot := outer) f

(* Timestamp-ordered scheduling: the next instruction is the one of the
   unfinished task whose core clock is smallest, ties to the lowest task
   index, so cross-core state mutations happen in global time order. *)
let pick c =
  let best = ref 0 in
  let best_clock = ref (Lsu.clock (Array.unsafe_get c.lsus 0)) in
  for i = 1 to c.live - 1 do
    let t = Lsu.clock (Array.unsafe_get c.lsus i) in
    if t < !best_clock then begin
      best := i;
      best_clock := t
    end
  done;
  !best

(* [pick c = c.cur], stopping at the first task that beats the running one. *)
let[@inline] earliest c =
  let mine = Lsu.clock c.lsu in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < c.live do
    let t = Lsu.clock (Array.unsafe_get c.lsus !i) in
    if t < mine || (t = mine && !i < c.cur) then ok := false;
    incr i
  done;
  !ok

(* A task's request is the dispatch itself: [stop] is consulted here, once.
   If it fires, the run is abandoned from the task's own stack; otherwise
   the request runs in place when its task is the one [pick] chooses. *)
let[@inline] ready c =
  c.started
  && (match c.stop with
      | None -> true
      | Some stop -> if stop () then (match perform Halt with _ -> .) else true)
  && (c.live = 1 || earliest c)

(* The current run when the caller may execute its request in place. *)
let here () =
  match !(Domain.DLS.get current) with
  | Some c as ctx when ready c -> ctx
  | _ -> None

let answer c = function
  | Exec i -> Lsu.exec c.lsu i
  | Get_now -> Lsu.clock c.lsu

let request r = match here () with Some c -> answer c r | None -> perform (Mem r)

let load addr =
  match here () with
  | Some c -> Lsu.load c.lsu addr
  | None -> perform (Mem (Exec (Instr.Load { addr })))

let store addr value =
  match here () with
  | Some c -> Lsu.store c.lsu addr value
  | None -> ignore (perform (Mem (Exec (Instr.Store { addr; value }))))

let cas addr ~expected ~desired =
  match here () with
  | Some c -> Lsu.cas c.lsu addr ~expected ~desired
  | None -> perform (Mem (Exec (Instr.Cas { addr; expected; desired }))) = 1

let clean addr = ignore (request (Exec (Instr.Cbo_clean { addr })))
let flush addr = ignore (request (Exec (Instr.Cbo_flush { addr })))
let inval addr = ignore (request (Exec (Instr.Cbo_inval { addr })))
let zero addr = ignore (request (Exec (Instr.Cbo_zero { addr })))
let fence () = ignore (request (Exec Instr.Fence))
let delay n = ignore (request (Exec (Instr.Delay n)))
let now () = request Get_now

type task = { core : int; body : unit -> unit }

(* What a fiber hands back to the scheduler: it finished, it is suspended
   on a request that is not its turn, or [stop] fired inside it. *)
type 'r status = Done | Yield of request * (int, 'r status) continuation | Halted of 'r

(* A suspended task: its pending request and where to resume it. *)
type 'r fiber = { mutable req : request; mutable k : (int, 'r status) continuation }

type _ mode =
  | Forever : int mode
  | Until : (unit -> bool) -> [ `Completed of int | `Stopped of int ] mode

let run_fibers (type r) system (mode : r mode) tasks : r =
  let stop = match mode with Forever -> None | Until s -> Some s in
  let c =
    {
      stop;
      lsus = [||];
      live = 0;
      cur = 0;
      lsu = System.lsu system 0;
      started = false;
    }
  in
  let handler : (unit, r status) handler =
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Mem req -> Some (fun (k : (a, r status) continuation) -> Yield (req, k))
          | Halt -> (
            match mode with
            | Until _ ->
              (* Crash point: every fiber is abandoned mid-instruction.  The
                 one-shot continuations are simply dropped (safe to GC);
                 whatever the tasks were about to do next never happens —
                 exactly a power failure at instruction granularity. *)
              Some (fun (_ : (a, r status) continuation) ->
                Halted (`Stopped (System.max_clock system)))
            | Forever -> None)
          | _ -> None);
    }
  in
  let completed () : r =
    let clock = System.max_clock system in
    match mode with Forever -> clock | Until _ -> `Completed clock
  in
  let run lsus fibers =
    c.lsus <- lsus;
    c.live <- Array.length fibers;
    c.started <- true;
    let finished i =
      for j = i to c.live - 2 do
        fibers.(j) <- fibers.(j + 1);
        c.lsus.(j) <- c.lsus.(j + 1)
      done;
      c.live <- c.live - 1
    in
    (* Entered after a task finished, or before the first dispatch: the one
       place the scheduler itself consults [stop]. *)
    let rec next () =
      if c.live = 0 then completed ()
      else
        match mode with
        | Until stop when stop () -> `Stopped (System.max_clock system)
        | _ -> dispatch (pick c)
    (* Run fiber [i]'s pending request, then resume it.  It comes back only
       to hand off, with [stop] already consulted for the next dispatch. *)
    and dispatch i =
      let f = fibers.(i) in
      c.cur <- i;
      c.lsu <- c.lsus.(i);
      let v = answer c f.req in
      match continue f.k v with
      | Done ->
        finished i;
        next ()
      | Yield (req, k) ->
        f.req <- req;
        f.k <- k;
        dispatch (pick c)
      | Halted r -> r
    in
    next ()
  in
  (* Every task runs up to its first request, in task order, before any
     instruction executes. *)
  let rec start acc = function
    | [] ->
      let suspended = List.rev acc in
      run
        (Array.of_list (List.map (fun (core, _) -> System.lsu system core) suspended))
        (Array.of_list (List.map snd suspended))
    | t :: rest -> (
      match match_with t.body () handler with
      | Done -> start acc rest
      | Yield (req, k) -> start ((t.core, { req; k }) :: acc) rest
      | Halted r -> r)
  in
  with_ctx c (fun () -> start [] tasks)

(* A lone task that can never be stopped is always the earliest: it runs on
   the caller's stack, with no fiber. *)
let lone system core =
  let lsu = System.lsu system core in
  { stop = None; lsus = [| lsu |]; live = 1; cur = 0; lsu; started = true }

let run system tasks =
  match tasks with
  | [ t ] ->
    with_ctx (lone system t.core) t.body;
    System.max_clock system
  | _ -> run_fibers system Forever tasks

let run_until system ~stop tasks = run_fibers system (Until stop) tasks
let run_task system f = with_ctx (lone system 0) f
