(* The typed TileLink port layer: channel-beat accounting, stall behaviour
   under contention, agent binding discipline, and memside-port counters. *)

open Skipit_tilelink
module Port = Skipit_tilelink.Port
module Registry = Skipit_sim.Stats.Registry

let get p name = Registry.get (Port.stats p) name

let test_channel_occupancy () =
  let p = Port.create ~name:"t" () in
  (* Contention-free: a send whose serialization is already accounted in
     [finish] costs nothing extra. *)
  Alcotest.(check int) "free C channel" 10 (Port.send_c p ~addr:0 ~finish:10 ~beats:4);
  (* A second sender wanting the same window queues behind the first. *)
  Alcotest.(check int) "contended send queues" 14 (Port.send_c p ~addr:0 ~finish:10 ~beats:4);
  (* Channels are independent wire sets. *)
  Alcotest.(check int) "A channel free" 8 (Port.send_a p ~addr:0 ~now:7);
  Alcotest.(check int) "D channel free" 11 (Port.recv_d p ~addr:0 ~finish:11 ~beats:4)

let test_beat_and_stall_counters () =
  let p = Port.create ~name:"t" () in
  ignore (Port.send_c p ~addr:0 ~finish:10 ~beats:4);
  ignore (Port.send_c p ~addr:0 ~finish:10 ~beats:4);
  ignore (Port.send_a p ~addr:0 ~now:7);
  ignore (Port.recv_d p ~addr:0 ~finish:11 ~beats:4);
  Alcotest.(check int) "c beats" 8 (get p "c_beats");
  Alcotest.(check int) "c stalls: only the queued send" 1 (get p "c_stalls");
  Alcotest.(check int) "c wait cycles" 4 (get p "c_wait_cycles");
  Alcotest.(check int) "a beats" 1 (get p "a_beats");
  Alcotest.(check int) "a stalls" 0 (get p "a_stalls");
  Alcotest.(check int) "d beats" 4 (get p "d_beats")

let dummy_manager done_at =
  {
    Port.acquire =
      (fun ~addr:_ ~grow:_ ~now:_ ~into:_ ~off:_ -> Port.Reply.v ~at:done_at ~flag:false);
    release = (fun ~addr:_ ~shrink:_ ~data:_ ~off:_ ~now -> now + 1);
    root_release = (fun ~addr:_ ~kind:_ ~data:_ ~off:_ ~now -> now + 2);
    root_inval = (fun ~addr:_ ~now -> now + 3);
    peek_word = (fun _ -> 42);
  }

let test_manager_forwarding () =
  let p = Port.create ~name:"t" () in
  Port.connect_manager p (dummy_manager 99);
  let g = Port.acquire p ~addr:0x40 ~grow:Perm.N_to_T ~now:0 ~into:[||] ~off:0 in
  Alcotest.(check int) "grant forwarded" 99 (Port.Reply.at g);
  Alcotest.(check int) "release forwarded" 6
    (Port.release p ~addr:0 ~shrink:Perm.T_to_N ~data:Port.no_data ~off:0 ~now:5);
  Alcotest.(check int) "root_release forwarded" 7
    (Port.root_release p ~addr:0 ~kind:Message.Wb_flush ~data:Port.no_data ~off:0 ~now:5);
  Alcotest.(check int) "root_inval forwarded" 8 (Port.root_inval p ~addr:0 ~now:5);
  Alcotest.(check int) "peek forwarded" 42 (Port.peek_word p 0);
  Alcotest.(check int) "acquires counted" 1 (get p "acquires");
  Alcotest.(check int) "releases counted" 1 (get p "releases");
  Alcotest.(check int) "root_releases counted" 1 (get p "root_releases");
  Alcotest.(check int) "root_invals counted" 1 (get p "root_invals")

let test_client_probe () =
  let p = Port.create ~name:"t" () in
  Port.connect_client p
    {
      Port.probe =
        (fun ~addr:_ ~cap:_ ~now ~into ~off ->
          into.(off) <- 5;
          Port.Reply.v ~at:(now + 7) ~flag:true);
    };
  let line = Array.make 8 0 in
  let r = Port.probe p ~addr:0x40 ~cap:Perm.Nothing ~now:3 ~into:line ~off:0 in
  Alcotest.(check int) "probe forwarded" 10 (Port.Reply.at r);
  Alcotest.(check bool) "data flag forwarded" true (Port.Reply.flag r);
  Alcotest.(check int) "data lands in the manager's line" 5 line.(0);
  Alcotest.(check int) "b_probes counted" 1 (get p "b_probes");
  Alcotest.(check int) "b_beats counted" 1 (get p "b_beats")

let test_unconnected_raises () =
  let p = Port.create ~name:"t" () in
  Alcotest.check_raises "no manager" (Invalid_argument "Port.t: no manager connected")
    (fun () -> ignore (Port.acquire p ~addr:0 ~grow:Perm.N_to_B ~now:0 ~into:[||] ~off:0));
  Alcotest.check_raises "no client" (Invalid_argument "Port.t: no client connected")
    (fun () -> ignore (Port.probe p ~addr:0 ~cap:Perm.Nothing ~now:0 ~into:[||] ~off:0))

let test_double_connect_raises () =
  let p = Port.create ~name:"t" () in
  Port.connect_manager p (dummy_manager 0);
  Alcotest.check_raises "manager rebind" (Invalid_argument "Port.t: manager already connected")
    (fun () -> Port.connect_manager p (dummy_manager 0));
  let client =
    { Port.probe = (fun ~addr:_ ~cap:_ ~now ~into:_ ~off:_ -> Port.Reply.v ~at:now ~flag:false) }
  in
  Port.connect_client p client;
  Alcotest.check_raises "client rebind" (Invalid_argument "Port.t: client already connected")
    (fun () -> Port.connect_client p client)

let test_shared_bus_contention () =
  (* Two ports on one wire set contend; two crossbar ports do not. *)
  let bus = Port.Channels.create ~name:"bus" in
  let p0 = Port.create ~channels:bus ~name:"p0" () in
  let p1 = Port.create ~channels:bus ~name:"p1" () in
  Alcotest.(check int) "first sender on the bus" 10 (Port.send_c p0 ~addr:0 ~finish:10 ~beats:4);
  Alcotest.(check int) "second port queues on shared wires" 14
    (Port.send_c p1 ~addr:0 ~finish:10 ~beats:4);
  Alcotest.(check int) "stall landed on the queued port" 1 (get p1 "c_stalls");
  Alcotest.(check int) "no stall on the winner" 0 (get p0 "c_stalls");
  let q0 = Port.create ~name:"q0" () in
  let q1 = Port.create ~name:"q1" () in
  ignore (Port.send_c q0 ~addr:0 ~finish:10 ~beats:4);
  Alcotest.(check int) "crossbar ports are independent" 10
    (Port.send_c q1 ~addr:0 ~finish:10 ~beats:4)

let test_memside_counters () =
  let m =
    Port.Memside.create ~name:"mem" ~beats_per_line:4 (fun stats ->
      {
        Port.Memside.read_line =
          (fun ~addr:_ ~now ~into ->
            Port.Memside.note_wait stats 3;
            Array.fill into 0 8 7;
            Port.Reply.v ~at:(now + 10) ~flag:false);
        write_line = (fun ~addr:_ ~data:_ ~now -> now + 5);
        persist_line = (fun ~addr:_ ~data:_ ~now -> now + 6);
        persist_if_dirty = (fun ~addr:_ ~now -> now);
        discard_line = (fun ~addr:_ -> ());
        peek_word = (fun _ -> 0);
        crash = (fun () -> ());
      })
  in
  let get name = Registry.get (Port.Memside.stats m) name in
  let line = Array.make 8 0 in
  let r = Port.Memside.read_line m ~addr:0x40 ~now:0 ~into:line in
  Alcotest.(check int) "read timed" 10 (Port.Reply.at r);
  Alcotest.(check bool) "clean" false (Port.Reply.flag r);
  Alcotest.(check int) "read into the receiver" 7 line.(7);
  ignore (Port.Memside.write_line m ~addr:0x40 ~data:[||] ~now:0);
  ignore (Port.Memside.persist_line m ~addr:0x40 ~data:[||] ~now:0);
  ignore (Port.Memside.persist_if_dirty m ~addr:0x40 ~now:0);
  Alcotest.(check int) "reads" 1 (get "reads");
  Alcotest.(check int) "read beats" 4 (get "read_beats");
  Alcotest.(check int) "writes" 1 (get "writes");
  Alcotest.(check int) "write beats cover write+persist" 8 (get "write_beats");
  Alcotest.(check int) "persists" 1 (get "persists");
  Alcotest.(check int) "persist checks" 1 (get "persist_checks");
  Alcotest.(check int) "agent-reported stalls" 1 (get "stalls");
  Alcotest.(check int) "agent-reported wait cycles" 3 (get "wait_cycles")

let tests =
  ( "port",
    [
      Alcotest.test_case "channel occupancy" `Quick test_channel_occupancy;
      Alcotest.test_case "beat/stall counters" `Quick test_beat_and_stall_counters;
      Alcotest.test_case "manager forwarding" `Quick test_manager_forwarding;
      Alcotest.test_case "client probe" `Quick test_client_probe;
      Alcotest.test_case "unconnected raises" `Quick test_unconnected_raises;
      Alcotest.test_case "double connect raises" `Quick test_double_connect_raises;
      Alcotest.test_case "shared-bus contention" `Quick test_shared_bus_contention;
      Alcotest.test_case "memside counters" `Quick test_memside_counters;
    ] )
