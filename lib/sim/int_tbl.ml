(* Open-addressed int->int hash table for per-line bookkeeping on the
   simulator's access path (e.g. the L1's last-change cycle per line base).
   Compared to a polymorphic [Hashtbl] it boxes nothing, allocates nothing
   on lookup (no [option]), and probes with an int hash instead of the
   generic structural hash.

   Keys must be non-negative (they are addresses); [min_int] is the empty
   slot sentinel.  Linear probing over a power-of-two table, grown at 50%
   load.  Entries can be overwritten but never removed, matching the
   bookkeeping use. *)

type t = {
  mutable keys : int array;  (* [min_int] = empty *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
  mutable shift : int;  (* 63 - log2 capacity: keeps the product's top bits *)
  mutable len : int;
}

let empty_key = min_int

let capacity_for hint =
  let rec up c = if c >= hint * 2 && c >= 16 then c else up (c * 2) in
  up 16

let shift_for cap =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  Sys.int_size - log2 cap 0

let create ?(size_hint = 64) () =
  let cap = capacity_for size_hint in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    shift = shift_for cap;
    len = 0;
  }

let length t = t.len

let slot t key = (key * 0x2545F4914F6CDD1D) lsr t.shift

let rec probe keys mask i key =
  let k = keys.(i) in
  if k = key || k = empty_key then i else probe keys mask ((i + 1) land mask) key

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- shift_for cap;
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty_key then begin
      let j = probe t.keys t.mask (slot t k) k in
      t.keys.(j) <- k;
      t.vals.(j) <- vals.(i)
    end
  done

let replace t key v =
  if key < 0 then invalid_arg "Int_tbl.replace: negative key";
  let i = probe t.keys t.mask (slot t key) key in
  if t.keys.(i) = empty_key then begin
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.len <- t.len + 1;
    if 2 * t.len > t.mask then grow t
  end
  else t.vals.(i) <- v

let find_default t key ~default =
  if key < 0 then invalid_arg "Int_tbl.find_default: negative key";
  let i = probe t.keys t.mask (slot t key) key in
  if t.keys.(i) = empty_key then default else t.vals.(i)

let mem t key =
  if key < 0 then invalid_arg "Int_tbl.mem: negative key";
  let i = probe t.keys t.mask (slot t key) key in
  t.keys.(i) <> empty_key

let probe_length t key =
  let home = slot t key in
  ((probe t.keys t.mask home key - home) land t.mask) + 1

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.len <- 0

let copy t = { t with keys = Array.copy t.keys; vals = Array.copy t.vals }

let copy_into ~src ~dst =
  if Array.length dst.keys = Array.length src.keys then begin
    Ints.copy_into ~src:src.keys ~dst:dst.keys;
    Ints.copy_into ~src:src.vals ~dst:dst.vals
  end
  else begin
    dst.keys <- Array.copy src.keys;
    dst.vals <- Array.copy src.vals
  end;
  dst.mask <- src.mask;
  dst.shift <- src.shift;
  dst.len <- src.len

let iter t f =
  for i = 0 to Array.length t.keys - 1 do
    let k = t.keys.(i) in
    if k <> empty_key then f k t.vals.(i)
  done
