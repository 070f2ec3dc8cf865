module Backing = Skipit_mem.Backing
module Allocator = Skipit_mem.Allocator
module Dram = Skipit_mem.Dram

let test_backing_rw () =
  let b = Backing.create () in
  Alcotest.(check int) "unwritten reads zero" 0 (Backing.read_word b 0x100);
  Backing.write_word b 0x100 42;
  Alcotest.(check int) "readback" 42 (Backing.read_word b 0x100);
  Backing.write_word b 0x100 43;
  Alcotest.(check int) "overwrite" 43 (Backing.read_word b 0x100)

let test_backing_alignment () =
  let b = Backing.create () in
  Alcotest.check_raises "unaligned read"
    (Invalid_argument "Backing: unaligned word address 0x3") (fun () ->
      ignore (Backing.read_word b 3))

let test_backing_lines () =
  let b = Backing.create () in
  let line = Array.init 8 (fun i -> i * 11) in
  Backing.write_line b ~line_bytes:64 0x240 line;
  (* Any address within the line reads the whole aligned line. *)
  Alcotest.(check (array int)) "roundtrip via interior address" line
    (Backing.read_line b ~line_bytes:64 0x278);
  Alcotest.(check int) "word view agrees" 33 (Backing.read_word b 0x258)

let test_backing_copy_independent () =
  let b = Backing.create () in
  Backing.write_word b 0x8 1;
  let snap = Backing.copy b in
  Backing.write_word b 0x8 2;
  Alcotest.(check int) "snapshot unaffected" 1 (Backing.read_word snap 0x8);
  Alcotest.(check int) "footprint" 1 (Backing.footprint snap)

let test_allocator_alignment () =
  let a = Allocator.create ~base:0 () in
  let p1 = Allocator.alloc a 10 in
  let p2 = Allocator.alloc a ~align:64 10 in
  Alcotest.(check int) "first at base" 0 p1;
  Alcotest.(check int) "second line aligned" 0 (p2 land 63);
  Alcotest.(check bool) "no overlap" true (p2 >= p1 + 10);
  let p3 = Allocator.alloc_line a ~line_bytes:64 in
  Alcotest.(check int) "line aligned" 0 (p3 land 63);
  Alcotest.(check bool) "monotone" true (p3 >= p2 + 10)

let test_allocator_invalid () =
  let a = Allocator.create () in
  Alcotest.check_raises "bad align"
    (Invalid_argument "Allocator.alloc: align not a power of two") (fun () ->
      ignore (Allocator.alloc a ~align:12 8))

let prop_alloc_disjoint =
  QCheck.Test.make ~name:"allocations never overlap" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range 1 256))
  @@ fun sizes ->
  let a = Allocator.create () in
  let regions = List.map (fun size -> Allocator.alloc a size, size) sizes in
  let rec disjoint = function
    | [] -> true
    | (base, size) :: rest ->
      List.for_all (fun (b2, s2) -> b2 >= base + size || base >= b2 + s2) rest
      && disjoint rest
  in
  disjoint regions

let test_dram_timing () =
  let d =
    Dram.create ~channels:1 ~read_latency:10 ~write_latency:8 ~occupancy:4 ~line_bytes:64
  in
  let line = Array.make 8 7 in
  let t_w = Dram.write_line d ~addr:0 ~data:line ~now:0 in
  Alcotest.(check int) "write durable at occupancy start + latency" 8 t_w;
  (* Second request queues behind the first's channel occupancy. *)
  let t_r = Dram.read_line d ~addr:64 ~now:0 ~into:(Array.make 8 0) in
  Alcotest.(check int) "read queued behind write burst" 14 t_r;
  Alcotest.(check (array int)) "write visible" line (Dram.peek_line d ~addr:0);
  Alcotest.(check int) "counters" 1 (Dram.reads d);
  Alcotest.(check int) "counters" 1 (Dram.writes d)

let test_dram_parallel_channels () =
  let d =
    Dram.create ~channels:2 ~read_latency:10 ~write_latency:8 ~occupancy:4 ~line_bytes:64
  in
  let _ = Dram.write_line d ~addr:0 ~data:(Array.make 8 0) ~now:0 in
  let t2 = Dram.write_line d ~addr:64 ~data:(Array.make 8 0) ~now:0 in
  Alcotest.(check int) "second channel parallel" 8 t2

let test_dram_snapshot () =
  let d =
    Dram.create ~channels:1 ~read_latency:1 ~write_latency:1 ~occupancy:1 ~line_bytes:64
  in
  Dram.poke_word d 0x40 5;
  let snap = Dram.snapshot d in
  Dram.poke_word d 0x40 6;
  Alcotest.(check int) "snapshot immutable" 5 (Backing.read_word snap 0x40);
  Alcotest.(check int) "live view" 6 (Dram.peek_word d 0x40)

(* [Backing] against a [Hashtbl] model: word and line reads and writes
   over a small address range (so lines overlap words), snapshots that
   must not see later writes, and a footprint that counts written zeros.
   Lines are 32, 64 or 128 B: the store keeps 64 B chunks, so a line may
   be part of one chunk or span two. *)
type backing_op =
  | Write_word of int * int
  | Read_word of int
  | Write_line of int * int array
  | Read_line of int * int  (* address, line bytes *)
  | Snapshot

let backing_op_gen =
  let addr = QCheck.Gen.map (fun w -> w * 8) (QCheck.Gen.int_range 0 255) in
  let value = QCheck.Gen.(frequency [ (1, return 0); (3, int_range (-5) 1000) ]) in
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a v -> Write_word (a, v)) addr value);
        (3, map (fun a -> Read_word a) addr);
        ( 2,
          map2
            (fun a l -> Write_line (a, l))
            addr
            (oneofl [ 4; 8; 16 ] >>= fun n -> array_size (return n) value) );
        (2, map2 (fun a n -> Read_line (a, n)) addr (oneofl [ 32; 64; 128 ]));
        (1, return Snapshot);
      ])

let print_backing_op = function
  | Write_word (a, v) -> Printf.sprintf "W%#x=%d" a v
  | Read_word a -> Printf.sprintf "R%#x" a
  | Write_line (a, l) -> Printf.sprintf "WL%d%#x" (8 * Array.length l) a
  | Read_line (a, n) -> Printf.sprintf "RL%d%#x" n a
  | Snapshot -> "S"

let contents iter =
  let acc = ref [] in
  iter (fun a v -> acc := (a, v) :: !acc);
  List.sort compare !acc

let prop_backing_matches_model =
  QCheck.Test.make ~name:"backing matches a hashtable model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map print_backing_op ops))
       QCheck.Gen.(list_size (int_range 1 120) backing_op_gen))
  @@ fun ops ->
  let b = Backing.create () in
  let m = Hashtbl.create 16 in
  let model_read a = Option.value (Hashtbl.find_opt m a) ~default:0 in
  let line_base ~bytes a = a land lnot (bytes - 1) in
  let snaps = ref [] in
  let ok =
    List.for_all
      (function
        | Write_word (a, v) ->
          Backing.write_word b a v;
          Hashtbl.replace m a v;
          true
        | Read_word a -> Backing.read_word b a = model_read a
        | Write_line (a, line) ->
          let bytes = 8 * Array.length line in
          Backing.write_line b ~line_bytes:bytes a line;
          Array.iteri (fun i v -> Hashtbl.replace m (line_base ~bytes a + (8 * i)) v) line;
          true
        | Read_line (a, bytes) ->
          Backing.read_line b ~line_bytes:bytes a
          = Array.init (bytes / 8) (fun i -> model_read (line_base ~bytes a + (8 * i)))
        | Snapshot ->
          snaps := (Backing.copy b, Hashtbl.copy m) :: !snaps;
          true)
      ops
  in
  let same (b, m) =
    Backing.footprint b = Hashtbl.length m
    && contents (Backing.iter b) = contents (fun f -> Hashtbl.iter f m)
  in
  ok && same (b, m) && List.for_all same !snaps

(* The DRAM read path reads the line into the receiver's storage with one
   backing-store probe and allocates nothing. *)
let test_dram_read_line_alloc () =
  let d =
    Dram.create ~channels:2 ~read_latency:10 ~write_latency:10 ~occupancy:2 ~line_bytes:64
  in
  for i = 0 to 63 do
    Dram.poke_word d (i * 8) i
  done;
  let into = Array.make 8 0 in
  ignore (Dram.read_line d ~addr:0 ~now:0 ~into);
  let n = 1000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Dram.read_line d ~addr:(i land 7 * 64) ~now:i ~into)
  done;
  let per_read = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "0 minor words per read_line (saw %.2f)" per_read)
    true (per_read <= 0.01);
  Alcotest.(check int) "the last line read" 7 into.(7)

let tests =
  ( "mem",
    [
      Alcotest.test_case "backing read/write" `Quick test_backing_rw;
      Alcotest.test_case "backing alignment" `Quick test_backing_alignment;
      Alcotest.test_case "backing lines" `Quick test_backing_lines;
      Alcotest.test_case "backing copy" `Quick test_backing_copy_independent;
      Alcotest.test_case "allocator alignment" `Quick test_allocator_alignment;
      Alcotest.test_case "allocator invalid align" `Quick test_allocator_invalid;
      Alcotest.test_case "dram timing" `Quick test_dram_timing;
      Alcotest.test_case "dram parallel channels" `Quick test_dram_parallel_channels;
      Alcotest.test_case "dram snapshot" `Quick test_dram_snapshot;
      Alcotest.test_case "dram read_line allocates nothing" `Quick test_dram_read_line_alloc;
      QCheck_alcotest.to_alcotest prop_alloc_disjoint;
      QCheck_alcotest.to_alcotest prop_backing_matches_model;
    ] )
