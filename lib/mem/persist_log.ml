module Int_tbl = Skipit_sim.Int_tbl
module Ints = Skipit_sim.Ints

type event = { addr : int; time : int; seq : int }

(* Events live in three parallel int arrays, in sequence order, grown by
   doubling: recording one costs three stores, and a scan over the log
   (the audit's well-formedness check) allocates nothing. *)
type t = {
  mutable addrs : int array;  (* line base, by event index *)
  mutable times : int array;
  mutable seqs : int array;
  mutable len : int;
  mutable next_seq : int;
  counts : Int_tbl.t;  (* line base -> events for that line *)
}

let initial_capacity = 16

let create () =
  {
    addrs = Array.make initial_capacity 0;
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    len = 0;
    next_seq = 0;
    counts = Int_tbl.create ~size_hint:16 ();
  }

let line_base addr = addr land lnot 63
let count_line t base = Int_tbl.find_default t.counts base ~default:0

let grown a =
  let b = Array.make (2 * Array.length a) 0 in
  Ints.blit a 0 b 0 (Array.length a);
  b

let record t ~addr ~time =
  let base = line_base addr in
  if t.len = Array.length t.addrs then begin
    t.addrs <- grown t.addrs;
    t.times <- grown t.times;
    t.seqs <- grown t.seqs
  end;
  t.addrs.(t.len) <- base;
  t.times.(t.len) <- time;
  t.seqs.(t.len) <- t.next_seq;
  t.len <- t.len + 1;
  t.next_seq <- t.next_seq + 1;
  Int_tbl.replace t.counts base (count_line t base + 1)

let length t = t.len
let addr_at t i = t.addrs.(i)
let time_at t i = t.times.(i)
let seq_at t i = t.seqs.(i)

let event t i = { addr = t.addrs.(i); time = t.times.(i); seq = t.seqs.(i) }
let events t = List.init t.len (event t)

let persists_of t ~addr =
  let base = line_base addr in
  List.filter (fun e -> e.addr = base) (events t)

let persist_count t ~addr = count_line t (line_base addr)

let first_persist_time t addr =
  match persists_of t ~addr with [] -> None | e :: _ -> Some e.time

let last_persist_time t addr =
  match List.rev (persists_of t ~addr) with [] -> None | e :: _ -> Some e.time

type order =
  | Before
  | Not_before
  | Never_persisted of { a : bool; b : bool }

let persisted_before t a b =
  match last_persist_time t a, first_persist_time t b with
  | Some ta, Some tb -> if ta <= tb then Before else Not_before
  | la, lb ->
    Never_persisted { a = Option.is_some la; b = Option.is_some lb }

let clear t =
  t.len <- 0;
  t.next_seq <- 0;
  Int_tbl.clear t.counts

(* Whole arrays, stale tail included, so a copy is identical to its
   source slot for slot; the arrays are reused while the capacities
   match. *)
let copy_array src dst =
  if Array.length dst = Array.length src then begin
    Ints.copy_into ~src ~dst;
    dst
  end
  else Array.copy src

let copy_into ~src ~dst =
  dst.addrs <- copy_array src.addrs dst.addrs;
  dst.times <- copy_array src.times dst.times;
  dst.seqs <- copy_array src.seqs dst.seqs;
  dst.len <- src.len;
  dst.next_seq <- src.next_seq;
  Int_tbl.copy_into ~src:src.counts ~dst:dst.counts
