let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let alloc allocator ~stride ~fields =
  if fields <= 0 then invalid_arg "Node.alloc: no fields";
  let bytes = stride * fields in
  let align = min 64 (next_pow2 bytes 8) in
  Skipit_mem.Allocator.alloc allocator ~align bytes

let field ~stride base i = base + (i * stride)

exception Cycle of int

let walk_limit allocator = Skipit_mem.Allocator.used allocator / 8
