(* Cycle-accounting critical-path attribution.

   Decomposes a request's arrival -> persist-complete span into exclusive
   per-stage cycle buckets.  The scheme is cursor segmentation: a frame
   carries the span start and a monotone cursor; every [mark stage ~at]
   charges the cycles between the cursor and [at] to [stage] and advances
   the cursor.  Marks therefore *partition* the span, and whatever the
   hierarchy did not explicitly claim falls into [Other] when the frame
   closes — so the per-stage cycles of every request sum to its total span
   by construction (conservation), which the serve tests pin.

   Frames are bound per core because the effects scheduler interleaves
   fibers: core A can suspend mid-instruction while core B executes.  The
   hierarchy hooks never know which request they serve; they only call
   [activate ~core] at the Dcache entry points (the one place the core id
   is in hand) and then [mark] against whatever frame is active.  Work
   that is *off* the critical path — the background FSHR walk, dirty
   writeback acks — is bracketed with [suspend]/[restore] at the call
   site so its future-dated completion times never pollute the cursor.

   Like [Trace], the sink is domain-local and [enabled ()] is one
   mutable-ref read, so with no sink installed every hook is a cheap
   guard and the simulated cycle counts are bit-identical with
   attribution on or off (recording never alters timing). *)

type stage =
  | Adm_wait  (* admission-queue wait: intended arrival -> worker dequeue *)
  | L1_hit  (* L1 access: hit latency, load-to-use, store commit *)
  | Mshr  (* L1 miss path: MSHR wait, victim evict, refill beats *)
  | Flushq_wait  (* flush-queue admission wait for a CBO *)
  | Fshr  (* FSHR occupancy: drain waits, forwards, nack retries *)
  | L2  (* L2 directory access, probes, slice occupancy *)
  | Bank_wait  (* wait for the owning L2 NUCA bank's MSHR/ListBuffer *)
  | Dram  (* memory-side: L3 bank + DRAM channel *)
  | Fence  (* fence stall: FSHR drain + fence cost + epoch commit work *)
  | Commit_wait  (* op complete -> persist-epoch commit begins *)
  | Other  (* residual cycles no hook claimed *)

let all_stages =
  [ Adm_wait; L1_hit; Mshr; Flushq_wait; Fshr; L2; Bank_wait; Dram; Fence; Commit_wait;
    Other ]

let n_stages = List.length all_stages

let stage_index = function
  | Adm_wait -> 0
  | L1_hit -> 1
  | Mshr -> 2
  | Flushq_wait -> 3
  | Fshr -> 4
  | L2 -> 5
  | Bank_wait -> 6
  | Dram -> 7
  | Fence -> 8
  | Commit_wait -> 9
  | Other -> 10

let stage_name = function
  | Adm_wait -> "adm_wait"
  | L1_hit -> "l1"
  | Mshr -> "mshr"
  | Flushq_wait -> "flushq_wait"
  | Fshr -> "fshr"
  | L2 -> "l2"
  | Bank_wait -> "bank_wait"
  | Dram -> "dram"
  | Fence -> "fence"
  | Commit_wait -> "commit_wait"
  | Other -> "other"

type frame = {
  fstart : int;  (* span origin (intended arrival for serve requests) *)
  mutable cursor : int;  (* everything before the cursor is attributed *)
  stages : int array;  (* exclusive cycles per stage, [n_stages] wide *)
}

type record = { total : int; cycles : int array }

type t = {
  mutable per_core : frame option array;  (* frame bound to each core *)
  mutable active : frame option;  (* frame marks charge against *)
  totals : int array;  (* per-stage cycles summed over closed frames *)
  mutable requests : int;  (* closed frames *)
  mutable trimmed : int;  (* closes that had to trim cursor overshoot *)
  mutable records : record list;  (* closed frames, newest first *)
  keep_records : bool;
}

let create ?(cores = 1) ?(keep_records = false) () =
  {
    per_core = Array.make (max 1 cores) None;
    active = None;
    totals = Array.make n_stages 0;
    requests = 0;
    trimmed = 0;
    records = [];
    keep_records;
  }

(* == Frames ============================================================= *)

let frame ~at = { fstart = at; cursor = at; stages = Array.make n_stages 0 }

let mark_frame f stage ~at =
  if at > f.cursor then begin
    let i = stage_index stage in
    f.stages.(i) <- f.stages.(i) + (at - f.cursor);
    f.cursor <- at
  end

let frame_total f = Array.fold_left ( + ) 0 f.stages

(* Close a frame at [at]: charge the unclaimed residual to [Other], or —
   if some background completion time slipped past the span end despite
   the suspend bracketing — trim the overshoot from the latest stages so
   the invariant sum(stages) = at - fstart always holds. *)
let close t f ~at =
  let total = max 0 (at - f.fstart) in
  let sum = frame_total f in
  if sum < total then f.stages.(stage_index Other) <- f.stages.(stage_index Other) + (total - sum)
  else if sum > total then begin
    t.trimmed <- t.trimmed + 1;
    let excess = ref (sum - total) in
    let i = ref (n_stages - 1) in
    while !excess > 0 && !i >= 0 do
      let take = min f.stages.(!i) !excess in
      f.stages.(!i) <- f.stages.(!i) - take;
      excess := !excess - take;
      decr i
    done
  end;
  for i = 0 to n_stages - 1 do
    t.totals.(i) <- t.totals.(i) + f.stages.(i)
  done;
  t.requests <- t.requests + 1;
  if t.keep_records then
    t.records <- { total; cycles = Array.copy f.stages } :: t.records

(* == The installed sink ================================================= *)

(* Domain-local, like [Trace.current]: pool jobs on different domains each
   carry their own attribution state, so output is byte-identical at any
   [--jobs] width. *)
let current : t Sink.t = Sink.create ()

let enabled () = Option.is_some (Sink.get current)

let start ?cores ?keep_records () =
  let t = create ?cores ?keep_records () in
  Sink.set current (Some t);
  t

let stop () = Sink.take current

let ensure_core t core =
  let n = Array.length t.per_core in
  if core >= n then begin
    let grown = Array.make (core + 1) None in
    Array.blit t.per_core 0 grown 0 n;
    t.per_core <- grown
  end

(* Bind [f] as the frame for [core]'s in-flight request (or unbind with
   [None]); hierarchy work executed on that core then charges it. *)
let bind ~core f =
  match Sink.get current with
  | None -> ()
  | Some t ->
    if core >= 0 then begin
      ensure_core t core;
      t.per_core.(core) <- f;
      t.active <- f
    end

(* Dcache entry points call this: instruction execution for [core] is
   beginning, so its frame (if any) becomes the active mark target. *)
let activate ~core =
  match Sink.get current with
  | None -> ()
  | Some t ->
    t.active <- (if core >= 0 && core < Array.length t.per_core then t.per_core.(core) else None)

let mark stage ~at =
  match Sink.get current with
  | None -> ()
  | Some t -> ( match t.active with None -> () | Some f -> mark_frame f stage ~at)

(* Bracket background work (FSHR walks, writeback acks) whose completion
   times are in the future relative to the instruction being attributed. *)
let suspend () =
  match Sink.get current with
  | None -> None
  | Some t ->
    let prev = t.active in
    t.active <- None;
    prev

let restore prev =
  match Sink.get current with None -> () | Some t -> t.active <- prev

(* == Results ============================================================ *)

let totals t = List.map (fun s -> stage_name s, t.totals.(stage_index s)) all_stages

let requests t = t.requests
let trimmed t = t.trimmed
let records t = List.rev t.records

let conserved t =
  List.for_all (fun r -> Array.fold_left ( + ) 0 r.cycles = r.total) (records t)
