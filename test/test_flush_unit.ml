module FU = Skipit_l1.Flush_unit
module Params = Skipit_cache.Params
open Skipit_tilelink

let params ?(n_fshrs = 2) ?(depth = 2) ?(coalescing = true) () =
  { Params.boom_default with Params.n_fshrs; flush_queue_depth = depth; coalescing }

let ack_after = 50

(* The cache side of a submission: the metadata callback rides as the
   context, every release is acked [ack_after] cycles after it leaves. *)
let sink =
  {
    FU.apply_meta = (fun on_meta ~slot:_ effect -> on_meta effect);
    send = (fun _ ~slot:_ ~addr:_ ~kind:_ ~with_data:_ ~now -> now + ack_after);
  }

(* A submission's outcome: the new request's row, viewed as a record,
   or the merge's commit and (partner's) ack. *)
type outcome = Accepted of FU.pending | Coalesced of { commit_at : int; ack_at : int }

let submit ?(kind = Message.Wb_clean) ?(hit = true) ?(dirty = true) ?(last_change = min_int)
    ?(on_meta = fun _ -> ()) fu ~addr ~now =
  let commit_at =
    FU.submit fu sink on_meta ~addr ~kind ~hit ~dirty ~slot:0 ~last_line_change:last_change ~now
  in
  if FU.last_coalesced fu then Coalesced { commit_at; ack_at = FU.ack_at fu }
  else begin
    let p = List.nth (FU.pendings fu) (List.length (FU.pendings fu) - 1) in
    assert (p.FU.commit_at = commit_at && p.FU.ack_at = FU.ack_at fu);
    Accepted p
  end


(* Coalescing applies to requests still waiting in the queue (§5.3); pin a
   single FSHR down with a blocker so the next request queues. *)
let with_queued_partner fu ~addr ~now =
  ignore (submit fu ~addr:0xF000 ~now:(now - 1));
  match submit fu ~addr ~now with
  | Accepted p ->
    assert (p.FU.alloc_at > now);
    p
  | Coalesced _ -> Alcotest.fail "partner cannot coalesce"

let test_commit_is_early () =
  let fu = FU.create (params ()) ~core:0 in
  match submit fu ~addr:0x40 ~now:10 with
  | Accepted p ->
    Alcotest.(check int) "commits at enqueue" 10 p.FU.commit_at;
    Alcotest.(check bool) "ack much later" true (p.FU.ack_at >= 10 + ack_after);
    Alcotest.(check bool) "release before ack" true (p.FU.release_at < p.FU.ack_at)
  | Coalesced _ -> Alcotest.fail "unexpected coalesce"

let test_depth_zero_synchronous () =
  let fu = FU.create (params ~depth:0 ()) ~core:0 in
  match submit fu ~addr:0x40 ~now:10 with
  | Accepted p ->
    Alcotest.(check int) "no queue => commit at completion" p.FU.ack_at p.FU.commit_at
  | Coalesced _ -> Alcotest.fail "unexpected coalesce"

let test_fshr_parallelism () =
  (* 2 FSHRs: two writebacks overlap, the third queues behind the first. *)
  let fu = FU.create (params ~n_fshrs:2 ~depth:8 ()) ~core:0 in
  let acks =
    List.map
      (fun addr ->
        match submit fu ~addr ~now:0 with
        | Accepted p -> p.FU.ack_at
        | Coalesced _ -> Alcotest.fail "unexpected coalesce")
      [ 0x40; 0x80; 0xc0 ]
  in
  match acks with
  | [ a1; a2; a3 ] ->
    Alcotest.(check bool) "two overlap" true (a2 - a1 < ack_after / 2);
    Alcotest.(check bool) "third serialized behind first" true (a3 >= a1 + ack_after)
  | _ -> assert false

let test_queue_backpressure () =
  (* Depth 1, 1 FSHR: the third request stalls until a queue slot frees. *)
  let fu = FU.create (params ~n_fshrs:1 ~depth:1 ()) ~core:0 in
  let commits =
    List.map
      (fun addr ->
        match submit fu ~addr ~now:0 with
        | Accepted p -> p.FU.commit_at
        | Coalesced _ -> Alcotest.fail "unexpected coalesce")
      [ 0x40; 0x80; 0xc0 ]
  in
  match commits with
  | [ c1; c2; c3 ] ->
    Alcotest.(check int) "first immediate" 0 c1;
    Alcotest.(check int) "second buffered immediately" 0 c2;
    Alcotest.(check bool) "third waits for a slot" true (c3 > 0)
  | _ -> assert false

let test_coalescing () =
  let fu = FU.create (params ~n_fshrs:1 ~depth:8 ()) ~core:0 in
  let first = with_queued_partner fu ~addr:0x40 ~now:1 in
  (match submit fu ~addr:0x40 ~now:5 with
   | Coalesced { ack_at; _ } ->
     Alcotest.(check int) "rides the queued writeback" first.FU.ack_at ack_at
   | Accepted _ -> Alcotest.fail "expected coalesce");
  (* Different kind never coalesces. *)
  (match submit fu ~kind:Message.Wb_flush ~addr:0x40 ~now:6 with
   | Accepted _ -> ()
   | Coalesced _ -> Alcotest.fail "kinds must not merge");
  Alcotest.(check int) "stats" 1 (Skipit_sim.Stats.Registry.get (FU.stats fu) "coalesced")

let test_coalescing_blocked_by_line_change () =
  let fu = FU.create (params ~n_fshrs:1 ~depth:8 ()) ~core:0 in
  ignore (with_queued_partner fu ~addr:0x40 ~now:1);
  (* A store at t=3 changed the line: the t=5 request must not merge. *)
  match submit fu ~addr:0x40 ~now:5 ~last_change:3 with
  | Accepted _ -> ()
  | Coalesced _ -> Alcotest.fail "state changed between the two CBO.X"

let test_coalescing_disabled () =
  let fu = FU.create (params ~coalescing:false ~n_fshrs:1 ~depth:8 ()) ~core:0 in
  ignore (with_queued_partner fu ~addr:0x40 ~now:1);
  match submit fu ~addr:0x40 ~now:5 with
  | Accepted _ -> ()
  | Coalesced _ -> Alcotest.fail "coalescing disabled"

let test_no_coalescing_once_allocated () =
  (* Once the partner holds an FSHR its metadata write is a state change of
     its own: later requests must not merge (§5.3 reading). *)
  let fu = FU.create (params ~n_fshrs:2 ~depth:8 ()) ~core:0 in
  (match submit fu ~addr:0x40 ~now:0 with
   | Accepted p -> assert (p.FU.alloc_at = 0)
   | Coalesced _ -> assert false);
  match submit fu ~addr:0x40 ~now:5 with
  | Accepted _ -> ()
  | Coalesced _ -> Alcotest.fail "partner already left the queue"

let test_fence_waits_for_all () =
  let fu = FU.create (params ~n_fshrs:2 ~depth:8 ()) ~core:0 in
  let acks =
    List.filter_map
      (fun addr ->
        match submit fu ~addr ~now:0 with Accepted p -> Some p.FU.ack_at | _ -> None)
      [ 0x40; 0x80; 0xc0; 0x100 ]
  in
  let latest = List.fold_left max 0 acks in
  Alcotest.(check int) "fence = last ack" latest (FU.fence_ready_at fu ~now:1);
  Alcotest.(check int) "outstanding" 4 (FU.outstanding fu ~now:1);
  Alcotest.(check int) "drained after" 0 (FU.outstanding fu ~now:(latest + 1));
  Alcotest.(check int) "fence free once drained" (latest + 1)
    (FU.fence_ready_at fu ~now:(latest + 1))

let test_load_conflict_forwarding () =
  let fu = FU.create (params ()) ~core:0 in
  let p =
    match submit fu ~addr:0x40 ~now:0 with Accepted p -> p | _ -> assert false
  in
  (* Dirty request: buffer gets filled; loads forward from it (§5.3). *)
  (match FU.load_conflict fu ~addr:0x40 ~now:1 with
   | FU.Load_forward t ->
     Alcotest.(check int) "ready when buffer filled"
       (max 1 (Option.get p.FU.buffer_ready_at)) t
   | _ -> Alcotest.fail "expected forwarding");
  (* Clean-line request: no data buffer; loads must wait for completion. *)
  let p2 =
    match submit fu ~addr:0x80 ~dirty:false ~now:0 with
    | Accepted p -> p
    | _ -> assert false
  in
  (match FU.load_conflict fu ~addr:0x80 ~now:1 with
   | FU.Load_wait t -> Alcotest.(check int) "waits for ack" p2.FU.ack_at t
   | _ -> Alcotest.fail "expected wait");
  match FU.load_conflict fu ~addr:0x200 ~now:1 with
  | FU.Load_no_conflict -> ()
  | _ -> Alcotest.fail "unrelated line must not conflict"

let test_store_rules () =
  let fu = FU.create (params ()) ~core:0 in
  (* Pending flush: stores wait for the ack. *)
  let pf =
    match submit fu ~kind:Message.Wb_flush ~addr:0x40 ~now:0 with
    | Accepted p -> p
    | _ -> assert false
  in
  Alcotest.(check int) "flush blocks stores until ack" pf.FU.ack_at
    (FU.store_proceed_at fu ~addr:0x40 ~now:1);
  (* Pending clean with filled buffer: stores proceed once filled. *)
  let pc =
    match submit fu ~kind:Message.Wb_clean ~addr:0x80 ~now:0 with
    | Accepted p -> p
    | _ -> assert false
  in
  let t = FU.store_proceed_at fu ~addr:0x80 ~now:1 in
  Alcotest.(check bool) "clean releases stores early" true (t < pc.FU.ack_at);
  Alcotest.(check bool) "but not before the buffer fill" true
    (t >= Option.get pc.FU.buffer_ready_at && t >= pc.FU.alloc_at);
  Alcotest.(check int) "unrelated line free" 1 (FU.store_proceed_at fu ~addr:0x200 ~now:1)

let test_probe_interlock () =
  (* §5.4.1: while an FSHR holds the line (flush_rdy low), probes wait for
     release_at. *)
  let fu = FU.create (params ()) ~core:0 in
  let p =
    match submit fu ~addr:0x40 ~now:0 with Accepted p -> p | _ -> assert false
  in
  let t = FU.block_until fu ~addr:0x40 ~now:(p.FU.alloc_at + 1) in
  Alcotest.(check int) "probe waits for release" p.FU.release_at t;
  let t2 = FU.block_until fu ~addr:0x40 ~now:(p.FU.release_at + 1) in
  Alcotest.(check int) "after release probes flow" (p.FU.release_at + 1) t2;
  let t3 = FU.block_until fu ~addr:0x40 ~now:(p.FU.alloc_at + 1) in
  Alcotest.(check int) "evictions obey the same interlock" p.FU.release_at t3

let test_skip_counter () =
  let fu = FU.create (params ()) ~core:0 in
  FU.note_skip_drop fu;
  FU.note_skip_drop fu;
  Alcotest.(check int) "skip drops" 2
    (Skipit_sim.Stats.Registry.get (FU.stats fu) "skip_dropped")

(* Retirement.  A pending request leaves the conflict structures at the
   first query whose [now] reaches its [ack_at] -- whatever order the
   queries' clocks come in (a cross-core probe carries the prober's
   clock). *)

let accepted = function Accepted p -> p | Coalesced _ -> Alcotest.fail "unexpected coalesce"

let test_retires_once_at_ack () =
  let fu = FU.create (params ()) ~core:0 in
  let p = accepted (submit fu ~addr:0x40 ~now:0) in
  Alcotest.(check int) "pending before its ack" 1 (FU.outstanding fu ~now:(p.FU.ack_at - 1));
  Alcotest.(check int) "retired at its ack" 0 (FU.outstanding fu ~now:p.FU.ack_at);
  Alcotest.(check int) "stays retired for an earlier clock" 0 (FU.outstanding fu ~now:0);
  Alcotest.(check int) "fence no longer waits" 5 (FU.fence_ready_at fu ~now:5)

let test_late_submit_retires () =
  let fu = FU.create (params ()) ~core:0 in
  ignore (FU.outstanding fu ~now:10_000);
  let p = accepted (submit fu ~addr:0x40 ~now:10) in
  Alcotest.(check bool) "ack behind the latest clock" true (p.FU.ack_at < 10_000);
  Alcotest.(check int) "not retired before its ack" 1 (FU.outstanding fu ~now:(p.FU.ack_at - 1));
  Alcotest.(check int) "retired once a query reaches it" 0 (FU.outstanding fu ~now:p.FU.ack_at)

let test_distant_acks_retire () =
  let fu = FU.create (params ~n_fshrs:1 ~depth:8 ()) ~core:0 in
  let ps = List.init 6 (fun i -> accepted (submit fu ~addr:(0x40 * (i + 1)) ~now:0)) in
  let acks = List.map (fun p -> p.FU.ack_at) ps in
  let first = List.fold_left min max_int acks and last = List.fold_left max 0 acks in
  Alcotest.(check int) "all pending before the earliest ack" 6
    (FU.outstanding fu ~now:(first - 1));
  Alcotest.(check int) "earliest retires alone" 5 (FU.outstanding fu ~now:first);
  Alcotest.(check int) "fence waits for the latest" last (FU.fence_ready_at fu ~now:first);
  Alcotest.(check int) "all retire at the latest" 0 (FU.outstanding fu ~now:last)

let test_crash_drops_pendings () =
  let fu = FU.create (params ()) ~core:0 in
  ignore (submit fu ~addr:0x40 ~now:0);
  ignore (submit fu ~addr:0x80 ~now:0);
  FU.crash fu;
  Alcotest.(check int) "nothing pending after a crash" 0 (FU.outstanding fu ~now:0);
  Alcotest.(check int) "fence free after a crash" 3 (FU.fence_ready_at fu ~now:3);
  let p = accepted (submit fu ~addr:0x40 ~now:1) in
  Alcotest.(check int) "a new request is pending" 1 (FU.outstanding fu ~now:(p.FU.ack_at - 1));
  Alcotest.(check int) "and retires at its ack" 0 (FU.outstanding fu ~now:p.FU.ack_at)

type fu_op = Submit of int * int (* line, now *) | Query of int

(* [lines] and [span] bound the submitted lines and the query clocks: a
   narrow span piles many acks onto few cycles, a wide one with more FSHRs
   spreads them out so most queries retire nothing. *)
let retirement_matches_filter ~name ~count ~n_fshrs ~depth ~lines ~span =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function
                | Submit (l, n) -> Printf.sprintf "S%d@%d" l n
                | Query n -> Printf.sprintf "Q%d" n)
              ops))
       QCheck.Gen.(
         list_size (int_range 1 60)
           (frequency
              [
                (2, map2 (fun l n -> Submit (l, n)) (int_range 0 (lines - 1)) (int_range 0 span));
                (3, map (fun n -> Query n) (int_range 0 (span + (span / 3))));
              ])))
  @@ fun ops ->
  (* Without coalescing a submission runs no query of its own. *)
  let fu = FU.create (params ~n_fshrs ~depth ~coalescing:false ()) ~core:0 in
  let model = ref [] in
  List.for_all
    (function
      | Submit (line, now) ->
        let p = accepted (submit fu ~addr:(0x1000 + (line * 64)) ~now) in
        model := p.FU.ack_at :: !model;
        true
      | Query now ->
        model := List.filter (fun ack -> ack > now) !model;
        FU.outstanding fu ~now = List.length !model
        && FU.fence_ready_at fu ~now = List.fold_left max now !model)
    ops

let prop_retirement_matches_filter =
  retirement_matches_filter ~name:"retirement matches filter model" ~count:300 ~n_fshrs:2
    ~depth:4 ~lines:8 ~span:600

let prop_retirement_matches_filter_wide =
  retirement_matches_filter ~name:"wide retirement matches filter model"
    ~count:200 ~n_fshrs:8 ~depth:16 ~lines:64 ~span:20_000


(* The submit path builds no record, option or list node: once the table
   has room for the live requests, submitting, merging and the int
   queries allocate nothing. *)
let test_submit_allocates_nothing () =
  List.iter
    (fun coalescing ->
      let fu = FU.create (params ~coalescing ~n_fshrs:2 ~depth:8 ()) ~core:0 in
      let now = ref 0 in
      let step i =
        let addr = 0x40 * (1 + (i land 3)) in
        let kind = if i land 4 = 0 then Message.Wb_clean else Message.Wb_flush in
        let c =
          FU.submit fu sink ignore ~addr ~kind ~hit:true ~dirty:(i land 1 = 0) ~slot:0
            ~last_line_change:min_int ~now:!now
        in
        let c = Int.max c (FU.store_proceed_at fu ~addr ~now:c) in
        let c = Int.max c (FU.line_ack_at fu ~addr:0x40 ~now:c) in
        ignore (FU.block_until fu ~addr ~now:c + FU.outstanding fu ~now:c);
        now := if i mod 7 = 6 then FU.fence_ready_at fu ~now:c else c + 1
      in
      for i = 1 to 100 do
        step i
      done;
      let before = Gc.minor_words () in
      for i = 1 to 1000 do
        step i
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "0 minor words across 1000 submits, coalescing %b (saw %.0f)" coalescing
           words)
        true (words = 0.))
    [ false; true ]

(* Differential oracle: the pre-table unit (linked list of pending
   records plus a queue book, kept in [Flush_unit_oracle]) and the live
   one run the same random sequence of submissions, §5.3/§5.4 queries,
   crashes and copies; every answer, every row of the pending table, the
   metadata effects, the trace events and the counters must agree. *)
module O = Flush_unit_oracle

type diff_op =
  | D_submit of { line : int; flush : bool; hit : bool; dirty : bool; now : int; lc : int }
  | D_query of { q : int; line : int; now : int }
  | D_crash
  | D_copy

let diff_op_to_string = function
  | D_submit { line; flush; hit; dirty; now; lc } ->
    Printf.sprintf "S(l%d,%s,%b,%b,@%d,lc%d)" line (if flush then "F" else "C") hit dirty now lc
  | D_query { q; line; now } -> Printf.sprintf "Q%d(l%d,@%d)" q line now
  | D_crash -> "crash"
  | D_copy -> "copy"

let diff_addr line = 0x4000 + (line * 64)

(* Acks depend on the line and the release cycle, so rows differ. *)
let diff_ack ~addr ~now = now + 20 + (addr lsr 6 mod 5 * 7)

let diff_caps = [| Perm.Nothing; Perm.Branch; Perm.Trunk |]

(* Run [ops] on one implementation, given as its operations; returns the
   observation log, newest first. *)
let diff_run ~make ~submit ~query ~rows ~crash ~copy ~stats ops =
  let log = ref [] in
  let note xs = log := xs :: !log in
  let live = ref (make ()) and twin = ref (make ()) in
  (* The twin has a history of its own, which a copy must overwrite. *)
  ignore (submit !twin ~addr:(diff_addr 9) ~flush:true ~hit:true ~dirty:true ~now:3 ~lc:min_int);
  List.iter
    (fun op ->
      (match op with
       | D_submit { line; flush; hit; dirty; now; lc } ->
         note (submit !live ~addr:(diff_addr line) ~flush ~hit ~dirty ~now ~lc)
       | D_query { q; line; now } -> note (query !live ~q ~addr:(diff_addr line) ~now)
       | D_crash -> crash !live
       | D_copy ->
         copy ~src:!live ~dst:!twin;
         let l = !live in
         live := !twin;
         twin := l);
      note (rows !live))
    ops;
  note (stats !live);
  !log

let oracle_run ~p ops =
  let effects = ref [] in
  let sink =
    {
      O.apply_meta = (fun () ~slot:_ e -> effects := Hashtbl.hash e :: !effects);
      send = (fun () ~slot:_ ~addr ~kind:_ ~with_data:_ ~now -> diff_ack ~addr ~now);
    }
  in
  let log =
    diff_run ops
      ~make:(fun () -> O.create p ~core:0)
      ~submit:(fun u ~addr ~flush ~hit ~dirty ~now ~lc ->
        let kind = if flush then Message.Wb_flush else Message.Wb_clean in
        match O.submit u sink () ~addr ~kind ~hit ~dirty ~slot:0 ~last_line_change:lc ~now with
        | O.Accepted pd -> [ pd.O.commit_at; pd.O.ack_at; 0 ]
        | O.Coalesced { commit_at; ack_at } -> [ commit_at; ack_at; 1 ])
      ~query:(fun u ~q ~addr ~now ->
        match q with
        | 0 -> (
          match O.load_conflict u ~addr ~now with
          | O.Load_no_conflict -> [ 0 ]
          | O.Load_forward t -> [ 1; t ]
          | O.Load_wait t -> [ 2; t ])
        | 1 -> [ Option.value (O.store_proceed_at u ~addr ~now) ~default:now ]
        | 2 -> [ O.probe_block_until u ~addr ~cap:diff_caps.(now mod 3) ~now ]
        | 3 -> [ O.evict_block_until u ~addr ~now ]
        | 4 -> [ O.fence_ready_at u ~now ]
        | 5 -> [ O.outstanding u ~now; O.queue_occupants u ]
        | _ -> (
          match O.find_pending u ~addr ~now with
          | Some pd -> [ Int.max now pd.O.ack_at ]
          | None -> [ now ]))
      ~rows:(fun u ->
        let rec walk acc = function
          | None -> List.rev acc
          | Some n ->
            let pd = n.O.pend in
            walk
              (pd.O.ack_at :: pd.O.release_at
               :: Option.value pd.O.buffer_ready_at ~default:(-1)
               :: pd.O.alloc_at :: pd.O.commit_at :: pd.O.entry.O.Flush_queue.enq_at
               :: pd.O.entry.O.Flush_queue.addr :: acc)
              n.O.pnext
        in
        walk [] u.O.phead)
      ~crash:O.crash
      ~copy:(fun ~src ~dst -> O.copy_into ~src ~dst)
      ~stats:(fun u -> List.map snd (Skipit_sim.Stats.Registry.to_list (O.stats u)))
  in
  log, !effects

let live_run ~p ops =
  let effects = ref [] in
  let sink =
    {
      FU.apply_meta = (fun () ~slot:_ e -> effects := Hashtbl.hash e :: !effects);
      send = (fun () ~slot:_ ~addr ~kind:_ ~with_data:_ ~now -> diff_ack ~addr ~now);
    }
  in
  let log =
    diff_run ops
      ~make:(fun () -> FU.create p ~core:0)
      ~submit:(fun u ~addr ~flush ~hit ~dirty ~now ~lc ->
        let kind = if flush then Message.Wb_flush else Message.Wb_clean in
        let commit_at =
          FU.submit u sink () ~addr ~kind ~hit ~dirty ~slot:0 ~last_line_change:lc ~now
        in
        [ commit_at; FU.ack_at u; Bool.to_int (FU.last_coalesced u) ])
      ~query:(fun u ~q ~addr ~now ->
        match q with
        | 0 -> (
          match FU.load_conflict u ~addr ~now with
          | FU.Load_no_conflict -> [ 0 ]
          | FU.Load_forward t -> [ 1; t ]
          | FU.Load_wait t -> [ 2; t ])
        | 1 -> [ FU.store_proceed_at u ~addr ~now ]
        | 2 | 3 -> [ FU.block_until u ~addr ~now ]
        | 4 -> [ FU.fence_ready_at u ~now ]
        | 5 -> [ FU.outstanding u ~now; FU.queue_occupants u ]
        | _ -> [ FU.line_ack_at u ~addr ~now ])
      ~rows:(fun u ->
        List.concat_map
          (fun pd ->
            [
              pd.FU.addr; pd.FU.enq_at; pd.FU.commit_at; pd.FU.alloc_at;
              Option.value pd.FU.buffer_ready_at ~default:(-1); pd.FU.release_at; pd.FU.ack_at;
            ])
          (FU.pendings u))
      ~crash:FU.crash
      ~copy:(fun ~src ~dst -> FU.copy_into ~src ~dst)
      ~stats:(fun u -> List.map snd (Skipit_sim.Stats.Registry.to_list (FU.stats u)))
  in
  log, !effects

let prop_matches_oracle =
  let span = 400 in
  let gen =
    QCheck.Gen.(
      let* n_fshrs = oneofl [ 1; 2; 4 ] in
      let* depth = oneofl [ 0; 1; 8 ] in
      let* coalescing = bool in
      let op =
        frequency
          [
            ( 5,
              let* line = int_bound 5 and* flush = bool and* hit = bool and* dirty = bool in
              let* now = int_bound span in
              let* lc = oneof [ return min_int; int_bound span ] in
              return (D_submit { line; flush; hit; dirty; now; lc }) );
            ( 5,
              let* q = int_bound 6 and* line = int_bound 5 and* now = int_bound (span + 100) in
              return (D_query { q; line; now }) );
            (1, return D_crash);
            (1, return D_copy);
          ]
      in
      let* ops = list_size (int_range 1 80) op in
      return ((n_fshrs, depth, coalescing), ops))
  in
  QCheck.Test.make ~name:"pending table matches the list-based oracle" ~count:400
    (QCheck.make gen ~print:(fun ((n_fshrs, depth, coalescing), ops) ->
       Printf.sprintf "fshrs=%d depth=%d coalescing=%b: %s" n_fshrs depth coalescing
         (String.concat " " (List.map diff_op_to_string ops))))
  @@ fun ((n_fshrs, depth, coalescing), ops) ->
  let p = params ~n_fshrs ~depth ~coalescing () in
  let (want, want_fx), want_tr = Skipit_obs.Trace.with_trace (fun () -> oracle_run ~p ops) in
  let (got, got_fx), got_tr = Skipit_obs.Trace.with_trace (fun () -> live_run ~p ops) in
  let events tr =
    List.map
      (fun r ->
        ( r.Skipit_obs.Trace.at,
          Skipit_obs.Trace.event_name r.Skipit_obs.Trace.ev,
          Skipit_obs.Trace.event_args r.Skipit_obs.Trace.ev ))
      (Skipit_obs.Trace.records tr)
  in
  if want <> got then QCheck.Test.fail_report "answers, rows or counters differ";
  if want_fx <> got_fx then QCheck.Test.fail_report "metadata effects differ";
  if events want_tr <> events got_tr then QCheck.Test.fail_report "trace events differ";
  true

let tests =
  ( "flush_unit",
    [
      Alcotest.test_case "early commit" `Quick test_commit_is_early;
      Alcotest.test_case "depth-0 synchronous" `Quick test_depth_zero_synchronous;
      Alcotest.test_case "FSHR parallelism" `Quick test_fshr_parallelism;
      Alcotest.test_case "queue back-pressure" `Quick test_queue_backpressure;
      Alcotest.test_case "coalescing" `Quick test_coalescing;
      Alcotest.test_case "coalescing blocked by change" `Quick test_coalescing_blocked_by_line_change;
      Alcotest.test_case "coalescing disabled" `Quick test_coalescing_disabled;
      Alcotest.test_case "no coalescing once allocated" `Quick test_no_coalescing_once_allocated;
      Alcotest.test_case "fence waits for all" `Quick test_fence_waits_for_all;
      Alcotest.test_case "load forwarding rules" `Quick test_load_conflict_forwarding;
      Alcotest.test_case "store rules" `Quick test_store_rules;
      Alcotest.test_case "probe/evict interlock" `Quick test_probe_interlock;
      Alcotest.test_case "skip counter" `Quick test_skip_counter;
      Alcotest.test_case "pending retires once at its ack" `Quick test_retires_once_at_ack;
      Alcotest.test_case "late submit behind clock retires" `Quick test_late_submit_retires;
      Alcotest.test_case "distant acks retire when reached" `Quick test_distant_acks_retire;
      Alcotest.test_case "crash drops pendings" `Quick test_crash_drops_pendings;
      QCheck_alcotest.to_alcotest prop_retirement_matches_filter;
      QCheck_alcotest.to_alcotest prop_retirement_matches_filter_wide;
      Alcotest.test_case "submit allocates nothing" `Quick test_submit_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_matches_oracle;
    ] )
