(* Words live in an [Int_tbl] keyed by byte address: an int probe per
   word, no structural hash and no [option] per lookup. *)
type t = Skipit_sim.Int_tbl.t

module Tbl = Skipit_sim.Int_tbl

let word_bytes = 8

(* Small at first (512 slots): a crash campaign builds hundreds of
   systems per trial and most touch few lines; the table doubles as it
   fills. *)
let create () : t = Tbl.create ~size_hint:256 ()

let check_aligned addr =
  if addr land (word_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Backing: unaligned word address %#x" addr)

let read_word t addr =
  check_aligned addr;
  Tbl.find_default t addr ~default:0

let write_word t addr v =
  check_aligned addr;
  Tbl.replace t addr v

let line_base ~line_bytes addr = addr land lnot (line_bytes - 1)

let read_line t ~line_bytes addr =
  let base = line_base ~line_bytes addr in
  let data = Array.make (line_bytes lsr 3) 0 in
  for i = 0 to Array.length data - 1 do
    data.(i) <- Tbl.find_default t (base + (i lsl 3)) ~default:0
  done;
  data

let write_line t ~line_bytes addr data =
  if Array.length data <> line_bytes lsr 3 then
    invalid_arg "Backing.write_line: wrong line size";
  let base = line_base ~line_bytes addr in
  for i = 0 to Array.length data - 1 do
    Tbl.replace t (base + (i lsl 3)) data.(i)
  done

let copy = Tbl.copy
let copy_into = Tbl.copy_into
let iter t f = Tbl.iter t f
let footprint = Tbl.length
