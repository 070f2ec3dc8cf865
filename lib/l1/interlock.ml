type agent = Probe_unit | Writeback_unit

type t = {
  mutable probe_rdy : bool;
  mutable wb_rdy : bool;
  mutable flush_rdy : bool;  (* low while an FSHR holds the line *)
}

let create () = { probe_rdy = true; wb_rdy = true; flush_rdy = true }

let probe_rdy t = t.probe_rdy
let flush_rdy t = t.flush_rdy
let wb_rdy t = t.wb_rdy

let agent_rdy t = function Probe_unit -> t.probe_rdy | Writeback_unit -> t.wb_rdy

let set_agent_rdy t agent v =
  match agent with
  | Probe_unit -> t.probe_rdy <- v
  | Writeback_unit -> t.wb_rdy <- v

let begin_intrusion t agent =
  if not (agent_rdy t agent) then Error `Busy
  else begin
    set_agent_rdy t agent false;
    Ok ()
  end

let try_dequeue t =
  (* Dequeue requires both intruders quiescent AND no FSHR already active
     (single-line interlock view). *)
  if t.probe_rdy && t.wb_rdy && t.flush_rdy then begin
    t.flush_rdy <- false;
    Ok ()
  end
  else Error `Blocked

let fshr_complete t =
  if t.flush_rdy then invalid_arg "Interlock.fshr_complete: no FSHR holds the interlock";
  t.flush_rdy <- true

let intrusion_may_proceed t agent =
  ignore agent;
  t.flush_rdy

let end_intrusion t agent =
  if agent_rdy t agent then invalid_arg "Interlock.end_intrusion: agent was not intruding";
  set_agent_rdy t agent true

let check_deadlock_free t =
  (* The system can always advance:
     - an active FSHR can complete (raising flush_rdy);
     - with flush_rdy high, any intruder may proceed and then finish;
     - with all signals high, the queue may dequeue.
     The only conceivable stuck shape would be an intruder waiting on
     flush_rdy while the FSHR waits on the intruder — but FSHR completion
     never waits on probe_rdy/wb_rdy, so the cycle cannot close. *)
  let fshr_active = not t.flush_rdy in
  let intruder_active = (not t.probe_rdy) || not t.wb_rdy in
  match fshr_active, intruder_active with
  | true, _ -> Ok () (* FSHR completion is always enabled. *)
  | false, true -> Ok () (* intrusion_may_proceed is true. *)
  | false, false -> Ok () (* try_dequeue is enabled. *)
