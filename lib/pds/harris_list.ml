module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Allocator = Skipit_mem.Allocator

let tail_key = 1 lsl 50

(* Node layout: field 0 = key (immutable), field 1 = next (tagged per Ptr). *)
type t = { head : int; tail : int; alloc : Allocator.t; stride : int }

let key_field ~stride node = Node.field ~stride node 0
let next_field ~stride node = Node.field ~stride node 1

let alloc_node t p ~key ~next =
  let node = Node.alloc t.alloc ~stride:t.stride ~fields:2 in
  Pctx.write p (key_field ~stride:t.stride node) key;
  Pctx.write p (next_field ~stride:t.stride node) next;
  (* One persist covers the node: both fields share its cache line. *)
  Pctx.persist p (key_field ~stride:t.stride node);
  node

let create p alloc =
  let stride = Pctx.stride p in
  let tail = Node.alloc alloc ~stride ~fields:2 in
  Pctx.write p (key_field ~stride tail) tail_key;
  Pctx.write p (next_field ~stride tail) Ptr.null;
  let head = Node.alloc alloc ~stride ~fields:2 in
  Pctx.write p (key_field ~stride head) 0;
  Pctx.write p (next_field ~stride head) tail;
  Pctx.persist p (key_field ~stride tail);
  Pctx.persist p (key_field ~stride head);
  Pctx.commit p ~updated:true;
  { head; tail; alloc; stride }

let key_of t p node = Pctx.read_traverse p (key_field ~stride:t.stride node)
let next_of t p node = Pctx.read_traverse p (next_field ~stride:t.stride node)

(* Harris find: returns (pred, curr) with [curr] the first node whose key is
   >= [key]; snips marked nodes on the way (physical deletion). *)
let rec find t p key =
  let pred = ref t.head in
  let curr = ref (Ptr.addr_of (next_of t p !pred)) in
  let restart = ref false in
  let result = ref None in
  while Option.is_none !result && not !restart do
    let succ_raw = ref (next_of t p !curr) in
    (* Snip a run of marked nodes after pred. *)
    while (not !restart) && Ptr.is_marked !succ_raw do
      let unmarked_succ = Ptr.addr_of !succ_raw in
      if Pctx.cas p (next_field ~stride:t.stride !pred) ~expected:!curr ~desired:unmarked_succ
      then begin
        Pctx.persist p (next_field ~stride:t.stride !pred);
        curr := unmarked_succ;
        succ_raw := next_of t p !curr
      end
      else restart := true
    done;
    if not !restart then begin
      if key_of t p !curr >= key then result := Some (!pred, !curr)
      else begin
        pred := !curr;
        curr := Ptr.addr_of !succ_raw
      end
    end
  done;
  match !result with Some r -> r | None -> find t p key

let contains t p key =
  let rec walk node =
    let k = key_of t p node in
    if k < key then walk (Ptr.addr_of (next_of t p node))
    else k = key && not (Ptr.is_marked (next_of t p node))
  in
  let found = walk (Ptr.addr_of (next_of t p t.head)) in
  Pctx.commit p ~updated:false;
  found

let rec insert t p key =
  if key <= 0 || key >= tail_key then invalid_arg "Harris_list.insert: key out of range";
  let pred, curr = find t p key in
  if key_of t p curr = key then begin
    Pctx.commit p ~updated:false;
    false
  end
  else begin
    let node = alloc_node t p ~key ~next:curr in
    if Pctx.cas p (next_field ~stride:t.stride pred) ~expected:curr ~desired:node then begin
      Pctx.persist p (next_field ~stride:t.stride pred);
      Pctx.commit p ~updated:true;
      true
    end
    else insert t p key
  end

let rec delete t p key =
  let pred, curr = find t p key in
  if key_of t p curr <> key then begin
    Pctx.commit p ~updated:false;
    false
  end
  else begin
    let next_addr = next_field ~stride:t.stride curr in
    let succ_raw = Pctx.read_critical p next_addr in
    if Ptr.is_marked succ_raw then delete t p key
    else if Pctx.cas p next_addr ~expected:succ_raw ~desired:(Ptr.with_mark succ_raw) then begin
      (* Logical deletion is the linearization point; persist it, then try
         to unlink physically (failure is fine — find will snip). *)
      Pctx.persist p next_addr;
      if Pctx.cas p (next_field ~stride:t.stride pred) ~expected:curr
           ~desired:(Ptr.addr_of succ_raw)
      then Pctx.persist p (next_field ~stride:t.stride pred);
      Pctx.commit p ~updated:true;
      true
    end
    else delete t p key
  end

let repair t p =
  let unlinked = ref 0 in
  let rec walk pred =
    let succ_raw = Pctx.read_critical p (next_field ~stride:t.stride pred) in
    let curr = Ptr.addr_of succ_raw in
    if curr = t.tail || Ptr.is_null curr then !unlinked
    else begin
      let curr_next = Pctx.read_critical p (next_field ~stride:t.stride curr) in
      if Ptr.is_marked curr_next then begin
        (* Interrupted deletion: finish the unlink durably. *)
        if
          Pctx.cas p (next_field ~stride:t.stride pred) ~expected:succ_raw
            ~desired:(Ptr.addr_of curr_next)
        then begin
          Pctx.persist p (next_field ~stride:t.stride pred);
          incr unlinked;
          walk pred
        end
        else walk pred
      end
      else walk curr
    end
  in
  let n = walk t.head in
  Pctx.commit p ~updated:(n > 0);
  n

let to_list_unsafe t system =
  let module S = Skipit_core.System in
  let peek addr = Strategy.lap_strip (S.peek_word system addr) in
  let rec walk node acc =
    if node = t.tail || Ptr.is_null node then List.rev acc
    else begin
      let key = peek (key_field ~stride:t.stride node) in
      let next_raw = peek (next_field ~stride:t.stride node) in
      let acc = if Ptr.is_marked next_raw then acc else key :: acc in
      walk (Ptr.addr_of next_raw) acc
    end
  in
  walk (Ptr.addr_of (peek (next_field ~stride:t.stride t.head))) []

let rebind t alloc = { t with alloc }
