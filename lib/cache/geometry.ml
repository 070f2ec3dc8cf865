type t = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  sets : int;
  line_shift : int;
  tag_shift : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let v ~size_bytes ~ways ~line_bytes =
  if not (is_power_of_two line_bytes) then invalid_arg "Geometry: line_bytes not a power of two";
  if ways <= 0 then invalid_arg "Geometry: ways <= 0";
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Geometry: size not divisible by ways*line";
  let sets = size_bytes / (ways * line_bytes) in
  if not (is_power_of_two sets) then invalid_arg "Geometry: sets not a power of two";
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  let line_shift = log2 line_bytes in
  { size_bytes; ways; line_bytes; sets; line_shift; tag_shift = line_shift + log2 sets }

let boom_l1 = v ~size_bytes:(32 * 1024) ~ways:8 ~line_bytes:64
let boom_l2 = v ~size_bytes:(512 * 1024) ~ways:8 ~line_bytes:64

let line_base t addr = addr land lnot (t.line_bytes - 1)
let index_of t addr = (addr lsr t.line_shift) land (t.sets - 1)
let tag_of t addr = addr lsr t.tag_shift
let addr_of t ~tag ~index = ((tag lsl (t.tag_shift - t.line_shift)) + index) lsl t.line_shift
let words_per_line t = t.line_bytes / 8
let offset_word t addr = (addr land (t.line_bytes - 1)) lsr 3
let lines t = t.sets * t.ways
