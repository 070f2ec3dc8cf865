(* Whole-ISA fuzzing against a line-granular reference model.

   The reference mirrors both the architectural state (mem) and the
   persistence domain (persisted) at word granularity with line-granular
   writeback/discard semantics:

   - store/cas mutate mem;
   - clean/flush copy the line's mem words into persisted (our simulator
     applies writeback effects eagerly, so the reference may too);
   - inval reverts the line's mem words to persisted (cached copies are
     discarded);
   - zero clears the line's mem words;
   - crash reverts all of mem to persisted.

   Any divergence in a loaded value, a persisted word, or a coherence /
   inclusion / skip-bit invariant fails the property. *)

module S = Skipit_core.System
module C = Skipit_core.Config
module Rng = Skipit_sim.Rng

type reference = { mem : (int, int) Hashtbl.t; persisted : (int, int) Hashtbl.t }

let ref_create () = { mem = Hashtbl.create 64; persisted = Hashtbl.create 64 }
let get tbl a = Option.value ~default:0 (Hashtbl.find_opt tbl a)
let line_words a = List.init 8 (fun w -> (a land lnot 63) + (w * 8))

let ref_store r a v = Hashtbl.replace r.mem a v

let ref_writeback r a =
  List.iter (fun w -> Hashtbl.replace r.persisted w (get r.mem w)) (line_words a)

let ref_inval r a =
  List.iter (fun w -> Hashtbl.replace r.mem w (get r.persisted w)) (line_words a)

let ref_zero r a = List.iter (fun w -> Hashtbl.replace r.mem w 0) (line_words a)

let ref_crash r =
  Hashtbl.reset r.mem;
  Hashtbl.iter (fun k v -> Hashtbl.replace r.mem k v) r.persisted

let run ?(random_replacement = false) ~tiny ~skip_it ~l3 ~cores ~ops ~seed () =
  let params =
    let p = if tiny then C.tiny ~cores () else C.platform ~cores () in
    let p = { p with Skipit_cache.Params.skip_it } in
    let p = if random_replacement then { p with Skipit_cache.Params.l1_replacement = `Random } else p in
    if l3 then Skipit_cache.Params.with_l3 p else p
  in
  let sys = S.create params in
  let rng = Rng.create ~seed in
  let lines =
    Array.init 16 (fun _ -> Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64)
  in
  let r = ref_create () in
  let failed = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !failed = None then failed := Some s) fmt in
  for op = 1 to ops do
    if !failed = None then begin
      let core = Rng.int rng cores in
      let a = lines.(Rng.int rng (Array.length lines)) + (8 * Rng.int rng 8) in
      (match Rng.int rng 20 with
       | 0 | 1 | 2 | 3 | 4 ->
         let got = S.load sys ~core a in
         if got <> get r.mem a then fail "op%d load %#x: got %d want %d" op a got (get r.mem a)
       | 5 | 6 | 7 | 8 | 9 ->
         let v = Rng.int rng 10000 in
         S.store sys ~core a v;
         ref_store r a v
       | 10 | 11 ->
         let expected = if Rng.bool rng then get r.mem a else Rng.int rng 10000 in
         let desired = Rng.int rng 10000 in
         let got = S.cas sys ~core a ~expected ~desired in
         let want = get r.mem a = expected in
         if got <> want then fail "op%d cas %#x: got %b want %b" op a got want;
         if want then ref_store r a desired
       | 12 | 13 ->
         S.clean sys ~core a;
         S.fence sys ~core;
         ref_writeback r a
       | 14 | 15 ->
         S.flush sys ~core a;
         S.fence sys ~core;
         ref_writeback r a
       | 16 ->
         S.inval sys ~core a;
         ref_inval r a
       | 17 ->
         S.zero sys ~core a;
         ref_zero r a
       | 18 -> S.fence sys ~core
       | _ ->
         S.crash sys;
         ref_crash r);
      (* Spot-check invariants every few ops (full check is O(cache)). *)
      if op mod 25 = 0 then begin
        match Structural.first_violation sys with
        | None -> ()
        | Some e -> fail "op%d invariant: %s" op e
      end
    end
  done;
  (* Final sweep: architectural and persisted images must both match. *)
  if !failed = None then
    Array.iter
      (fun base ->
        List.iter
          (fun w ->
            if S.peek_word sys w <> get r.mem w then
              fail "final mem %#x: got %d want %d" w (S.peek_word sys w) (get r.mem w);
            if S.persisted_word sys w <> get r.persisted w then
              fail "final persisted %#x: got %d want %d" w (S.persisted_word sys w)
                (get r.persisted w))
          (line_words base))
      lines;
  !failed

let check name outcome =
  match outcome with None -> () | Some msg -> Alcotest.failf "%s: %s" name msg

let test_boom_2c () = check "boom" (run ~tiny:false ~skip_it:true ~l3:false ~cores:2 ~ops:600 ~seed:5 ())
let test_tiny_2c () = check "tiny" (run ~tiny:true ~skip_it:false ~l3:false ~cores:2 ~ops:600 ~seed:6 ())
let test_l3_2c () = check "l3" (run ~tiny:false ~skip_it:true ~l3:true ~cores:2 ~ops:600 ~seed:7 ())
let test_quad () = check "4-core" (run ~tiny:true ~skip_it:true ~l3:false ~cores:4 ~ops:600 ~seed:8 ())

let test_random_replacement () =
  check "random-repl"
    (run ~random_replacement:true ~tiny:true ~skip_it:true ~l3:false ~cores:2 ~ops:600 ~seed:9 ())

let prop_fuzz =
  QCheck.Test.make ~name:"full-ISA fuzz vs reference" ~count:20
    QCheck.(quad small_int bool bool (int_range 1 4))
  @@ fun (seed, skip_it, l3, cores) ->
  match run ~tiny:(not l3) ~skip_it ~l3 ~cores ~ops:250 ~seed () with
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

(* Timing parameters must never change architectural outcomes: the same
   program (no inval/crash — their discard semantics legitimately depend on
   what happened to be written back) yields identical memory values under
   radically different geometries and latencies. *)
let prop_timing_independent =
  QCheck.Test.make ~name:"architectural values independent of timing config" ~count:10
    QCheck.small_int
  @@ fun seed ->
  let configs =
    [
      C.platform ~cores:2 ();
      C.tiny ~cores:2 ();
      Skipit_cache.Params.with_l3 (C.platform ~cores:2 ~skip_it:true ());
      { (C.platform ~cores:2 ()) with
        Skipit_cache.Params.n_fshrs = 1;
        flush_queue_depth = 0;
        wide_data_array = false;
        async_stores = false;
      };
    ]
  in
  let outcome params =
    let sys = S.create params in
    let rng = Rng.create ~seed in
    let lines =
      Array.init 12 (fun _ -> Skipit_mem.Allocator.alloc_line (S.allocator sys) ~line_bytes:64)
    in
    for _ = 1 to 300 do
      let core = Rng.int rng 2 in
      let a = lines.(Rng.int rng (Array.length lines)) + (8 * Rng.int rng 8) in
      match Rng.int rng 8 with
      | 0 | 1 | 2 -> ignore (S.load sys ~core a)
      | 3 | 4 -> S.store sys ~core a (Rng.int rng 1000)
      | 5 -> ignore (S.cas sys ~core a ~expected:(Rng.int rng 1000) ~desired:(Rng.int rng 1000))
      | 6 -> S.clean sys ~core a
      | _ ->
        S.flush sys ~core a;
        S.fence sys ~core
    done;
    Array.to_list lines
    |> List.concat_map (fun base -> List.map (fun w -> S.peek_word sys w) (line_words base))
  in
  match List.map outcome configs with
  | first :: rest -> List.for_all (fun o -> o = first) rest
  | [] -> true

let tests =
  ( "fuzz",
    [
      Alcotest.test_case "boom 2-core" `Quick test_boom_2c;
      Alcotest.test_case "tiny 2-core" `Quick test_tiny_2c;
      Alcotest.test_case "with L3" `Quick test_l3_2c;
      Alcotest.test_case "4-core" `Quick test_quad;
      Alcotest.test_case "random replacement" `Quick test_random_replacement;
      QCheck_alcotest.to_alcotest prop_fuzz;
      QCheck_alcotest.to_alcotest prop_timing_independent;
    ] )
