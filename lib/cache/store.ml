(* Struct-of-arrays set-associative tag store.

   v1 kept one heap record per way ([{tag; valid; payload; last_use}]),
   which meant every lookup returned a ['a slot option] — an allocation on
   the L1-hit path — and a tag scan chased a pointer per way.  v2 keys
   everything by an integer slot id ([set * ways + way]) into flat
   parallel tables: tags and LRU stamps in [int array]s, valid bits in a
   [Bytes.t].  Lookups return the slot id (-1 for a miss), so the hit
   path allocates nothing, and a set's tags sit in 8|ways| contiguous
   bytes of one array.

   The store holds tags only.  Each level keeps its line state in its own
   tables indexed by the same slot id: the L1 a packed metadata byte and
   one flat word array, the L2 and L3 one line record per slot, made on
   the slot's first fill and reused by every later one.  Nothing here
   stores a pointer, so a fill or invalidate never calls [caml_modify],
   and a copy is three blits. *)

type policy = Lru | Random of Skipit_sim.Rng.t

type t = {
  geom : Geometry.t;
  policy : policy;
  ways : int;
  tags : int array;  (* by slot id *)
  valid : Bytes.t;  (* 0/1 by slot id *)
  last_use : int array;  (* by slot id *)
}

let miss = -1

let create ?(policy = Lru) geom =
  let slots = geom.Geometry.sets * geom.Geometry.ways in
  {
    geom;
    policy;
    ways = geom.Geometry.ways;
    tags = Array.make slots 0;
    valid = Bytes.make slots '\000';
    last_use = Array.make slots 0;
  }

let geometry t = t.geom
let slots t = Array.length t.tags
let is_valid t id = Bytes.unsafe_get t.valid id <> '\000'

(* Top-level so the tag scan compiles to a static call: a local [let rec]
   closing over [t]/[base]/[tag] is a minor-heap closure per lookup
   (without flambda), which would break the zero-alloc L1-hit pin. *)
let rec scan_ways t base tag i =
  if i >= t.ways then miss
  else begin
    let id = base + i in
    if is_valid t id && Array.unsafe_get t.tags id = tag then id
    else scan_ways t base tag (i + 1)
  end

let find t addr =
  let base = Geometry.index_of t.geom addr * t.ways in
  let tag = Geometry.tag_of t.geom addr in
  scan_ways t base tag 0

let touch t id ~now = t.last_use.(id) <- now

(* Replacement (matching v1 bit for bit): the lowest-numbered invalid way
   if any, else the policy's pick — for LRU the lowest-numbered way with
   the strictly smallest stamp. *)
let victim t addr =
  let base = Geometry.index_of t.geom addr * t.ways in
  let i = ref 0 in
  while !i < t.ways && is_valid t (base + !i) do
    incr i
  done;
  if !i < t.ways then base + !i
  else (
    match t.policy with
    | Lru ->
      let best = ref base in
      for i = 1 to t.ways - 1 do
        if t.last_use.(base + i) < t.last_use.(!best) then best := base + i
      done;
      !best
    | Random rng -> base + Skipit_sim.Rng.int rng t.ways)

let fill t id ~addr ~now =
  t.tags.(id) <- Geometry.tag_of t.geom addr;
  Bytes.unsafe_set t.valid id '\001';
  t.last_use.(id) <- now

let invalidate t id = Bytes.unsafe_set t.valid id '\000'

let slot_addr t id =
  if not (is_valid t id) then invalid_arg "Store.slot_addr: invalid slot";
  Geometry.addr_of t.geom ~tag:t.tags.(id) ~index:(id / t.ways)

(* The audit walks every cached line this way at each check, mostly over
   a sparse store (2 valid slots in 128 on average in the crash
   campaign), so eight valid bytes that are all zero are skipped with one
   load. *)
let iter_valid t f =
  let n = Bytes.length t.valid in
  let id = ref 0 in
  while !id < n do
    let i = !id in
    if i + 8 <= n && Bytes.get_int64_ne t.valid i = 0L then id := i + 8
    else begin
      if is_valid t i then
        f (Geometry.addr_of t.geom ~tag:(Array.unsafe_get t.tags i) ~index:(i / t.ways)) i;
      id := i + 1
    end
  done

let count_valid t =
  let n = ref 0 in
  for id = 0 to Array.length t.tags - 1 do
    if is_valid t id then incr n
  done;
  !n

let invalidate_all t = Bytes.fill t.valid 0 (Bytes.length t.valid) '\000'

(* Invalid slots' stale tags and stamps are copied too, so a copy is
   identical to its source slot for slot. *)
let copy_into ~src ~dst =
  if Array.length dst.tags <> Array.length src.tags || dst.ways <> src.ways then
    invalid_arg "Store.copy_into: geometries differ";
  (match src.policy, dst.policy with
   | Lru, Lru -> ()
   | Random a, Random b -> Skipit_sim.Rng.copy_into ~src:a ~dst:b
   | (Lru | Random _), _ -> invalid_arg "Store.copy_into: policies differ");
  Skipit_sim.Ints.copy_into ~src:src.tags ~dst:dst.tags;
  Skipit_sim.Ints.copy_into ~src:src.last_use ~dst:dst.last_use;
  Bytes.blit src.valid 0 dst.valid 0 (Bytes.length src.valid)
