type t = { base : int; mutable cursor : int }

let create ?(base = 0x1_0000) () = { base; cursor = base }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let alloc t ?(align = 8) bytes =
  if bytes < 0 then invalid_arg "Allocator.alloc: negative size";
  if not (is_power_of_two align) then invalid_arg "Allocator.alloc: align not a power of two";
  let aligned = (t.cursor + align - 1) land lnot (align - 1) in
  t.cursor <- aligned + bytes;
  aligned

let alloc_line t ~line_bytes = alloc t ~align:line_bytes line_bytes
let used t = t.cursor - t.base

let copy_into ~src ~dst =
  if dst.base <> src.base then invalid_arg "Allocator.copy_into: bases differ";
  dst.cursor <- src.cursor
