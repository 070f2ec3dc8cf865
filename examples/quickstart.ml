(* Quickstart: build the paper's platform, issue the new CBO.X instructions,
   and watch what is (and is not) persisted across a crash.

   Run with: dune exec examples/quickstart.exe *)

module System = Skipit_core.System
module Config = Skipit_core.Config
module Invariant = Skipit_audit.Invariant

let () =
  (* The §7.1 platform: two SonicBOOM cores, 32 KiB L1s, shared 512 KiB
     inclusive L2, with the Skip It extension enabled. *)
  let sys = System.create (Config.platform ~cores:2 ~skip_it:true ()) in
  let addr = Skipit_mem.Allocator.alloc_line (System.allocator sys) ~line_bytes:64 in

  (* A store is volatile until written back: it lives in core 0's L1. *)
  System.store sys ~core:0 addr 42;
  Printf.printf "stored 42        -> cached=%d persisted=%d\n"
    (System.peek_word sys addr) (System.persisted_word sys addr);

  (* CBO.CLEAN writes the line back but keeps it cached; the FENCE waits for
     the RootReleaseAck (§5.3). *)
  let t0 = System.clock sys ~core:0 in
  System.clean sys ~core:0 addr;
  System.fence sys ~core:0;
  Printf.printf "clean + fence    -> persisted=%d (%d cycles)\n"
    (System.persisted_word sys addr)
    (System.clock sys ~core:0 - t0);

  (* A second clean of the unmodified line is dropped by the skip bit. *)
  let t0 = System.clock sys ~core:0 in
  System.clean sys ~core:0 addr;
  System.fence sys ~core:0;
  Printf.printf "redundant clean  -> %d cycles (Skip It dropped it)\n"
    (System.clock sys ~core:0 - t0);

  (* Cross-core: core 1 updates the same line; coherence probes core 0. *)
  System.store sys ~core:1 addr 43;
  System.flush sys ~core:1 addr;
  System.fence sys ~core:1;
  Printf.printf "core1 store+flush-> persisted=%d\n" (System.persisted_word sys addr);

  (* Power failure: caches vanish, memory survives. *)
  System.store sys ~core:0 addr 99;
  System.crash sys;
  Printf.printf "crash            -> value after recovery=%d (99 was never written back)\n"
    (System.persisted_word sys addr);

  match Invariant.check_all sys with
  | [] -> print_endline "coherence + skip-bit invariants hold"
  | v :: _ -> print_endline ("INVARIANT VIOLATION: " ^ Invariant.violation_to_string v)
