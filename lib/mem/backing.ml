(* Words live in chunks of [chunk_words] (one 64 B line), keyed by chunk
   base in an [Int_tbl] whose value is the chunk's index in a pool: one
   int probe per line instead of one per word, no structural hash and no
   [option] per lookup.  A chunk's [written] mask has bit [w] set once word
   [w] has been written (zeros included), which is what [footprint] and
   [iter] report; unwritten words of a chunk hold zero. *)
module Tbl = Skipit_sim.Int_tbl
module Ints = Skipit_sim.Ints

type t = {
  chunks : Tbl.t;  (* chunk base -> index into the pool *)
  mutable words : int array;  (* chunk [c]'s words at [c * chunk_words] *)
  mutable written : int array;  (* per-chunk written-word mask *)
  mutable n_chunks : int;
  mutable n_written : int;  (* set bits over every mask *)
}

let word_bytes = 8
let chunk_words = 8
let chunk_bytes = chunk_words * word_bytes

(* Small at first: a crash campaign builds hundreds of systems per trial
   and most touch few lines; the pool doubles as it fills. *)
let initial_chunks = 32

let create () =
  {
    chunks = Tbl.create ~size_hint:initial_chunks ();
    words = Array.make (initial_chunks * chunk_words) 0;
    written = Array.make initial_chunks 0;
    n_chunks = 0;
    n_written = 0;
  }

let check_aligned addr =
  if addr land (word_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Backing: unaligned word address %#x" addr)

let chunk_base addr = addr land lnot (chunk_bytes - 1)
let word_in_chunk addr = (addr lsr 3) land (chunk_words - 1)

(* The pool index of [base]'s chunk, or -1. *)
let find t base = Tbl.find_default t.chunks base ~default:(-1)

let grow t =
  let cap = 2 * Array.length t.written in
  let words = Array.make (cap * chunk_words) 0 in
  Ints.blit t.words 0 words 0 (t.n_chunks * chunk_words);
  let written = Array.make cap 0 in
  Ints.blit t.written 0 written 0 t.n_chunks;
  t.words <- words;
  t.written <- written

(* The pool index of [base]'s chunk, allocated (all zero, nothing written)
   when absent. *)
let find_or_add t base =
  let c = find t base in
  if c >= 0 then c
  else begin
    if t.n_chunks = Array.length t.written then grow t;
    let c = t.n_chunks in
    t.n_chunks <- c + 1;
    Tbl.replace t.chunks base c;
    c
  end

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* Mark words [w .. w + n - 1] of chunk [c] written. *)
let mark t c ~w ~n =
  let bits = ((1 lsl n) - 1) lsl w in
  let m = t.written.(c) in
  t.n_written <- t.n_written + popcount (bits land lnot m);
  t.written.(c) <- m lor bits

let read_word t addr =
  check_aligned addr;
  let c = find t (chunk_base addr) in
  if c < 0 then 0 else t.words.((c * chunk_words) + word_in_chunk addr)

let write_word t addr v =
  check_aligned addr;
  let c = find_or_add t (chunk_base addr) in
  let w = word_in_chunk addr in
  t.words.((c * chunk_words) + w) <- v;
  mark t c ~w ~n:1

let line_base ~line_bytes addr = addr land lnot (line_bytes - 1)

(* A line is one chunk at the simulated 64 B line size; other sizes span
   several chunks or part of one, one probe per chunk either way. *)
let read_line_into t ~line_bytes addr dst =
  let base = line_base ~line_bytes addr in
  let n = line_bytes lsr 3 in
  let i = ref 0 in
  while !i < n do
    let a = base + (!i lsl 3) in
    let w = word_in_chunk a in
    let k = Int.min (chunk_words - w) (n - !i) in
    let c = find t (chunk_base a) in
    if c < 0 then Array.fill dst !i k 0
    else Ints.blit t.words ((c * chunk_words) + w) dst !i k;
    i := !i + k
  done

let read_line t ~line_bytes addr =
  let data = Array.make (line_bytes lsr 3) 0 in
  read_line_into t ~line_bytes addr data;
  data

let write_line t ~line_bytes addr data =
  if Array.length data <> line_bytes lsr 3 then
    invalid_arg "Backing.write_line: wrong line size";
  let base = line_base ~line_bytes addr in
  let n = line_bytes lsr 3 in
  let i = ref 0 in
  while !i < n do
    let a = base + (!i lsl 3) in
    let w = word_in_chunk a in
    let k = Int.min (chunk_words - w) (n - !i) in
    let c = find_or_add t (chunk_base a) in
    Ints.blit data !i t.words ((c * chunk_words) + w) k;
    mark t c ~w ~n:k;
    i := !i + k
  done

let copy t =
  {
    chunks = Tbl.copy t.chunks;
    words = Array.copy t.words;
    written = Array.copy t.written;
    n_chunks = t.n_chunks;
    n_written = t.n_written;
  }

let copy_into ~src ~dst =
  Tbl.copy_into ~src:src.chunks ~dst:dst.chunks;
  if Array.length dst.written = Array.length src.written then begin
    Ints.copy_into ~src:src.words ~dst:dst.words;
    Ints.copy_into ~src:src.written ~dst:dst.written
  end
  else begin
    dst.words <- Array.copy src.words;
    dst.written <- Array.copy src.written
  end;
  dst.n_chunks <- src.n_chunks;
  dst.n_written <- src.n_written

let iter t f =
  Tbl.iter t.chunks (fun base c ->
    let m = t.written.(c) in
    for w = 0 to chunk_words - 1 do
      if m land (1 lsl w) <> 0 then f (base + (w * word_bytes)) t.words.((c * chunk_words) + w)
    done)

let footprint t = t.n_written
