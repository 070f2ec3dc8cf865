module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Allocator = Skipit_mem.Allocator

(* Node layout: field 0 = value, field 1 = next.  head/tail are single-word
   cells each on their own line (they are the contention hot spots). *)
type t = { head_cell : int; tail_cell : int; alloc : Allocator.t; stride : int }

let fvalue ~stride n = Node.field ~stride n 0
let fnext ~stride n = Node.field ~stride n 1

let alloc_node t p ~value ~next =
  let n = Node.alloc t.alloc ~stride:t.stride ~fields:2 in
  Pctx.write p (fvalue ~stride:t.stride n) value;
  Pctx.write p (fnext ~stride:t.stride n) next;
  Pctx.persist p (fvalue ~stride:t.stride n);
  n

let create p alloc =
  let stride = Pctx.stride p in
  let t =
    {
      head_cell = Allocator.alloc_line alloc ~line_bytes:64;
      tail_cell = Allocator.alloc_line alloc ~line_bytes:64;
      alloc;
      stride;
    }
  in
  let sentinel = alloc_node t p ~value:0 ~next:Ptr.null in
  Pctx.write p t.head_cell sentinel;
  Pctx.write p t.tail_cell sentinel;
  Pctx.persist p t.head_cell;
  Pctx.persist p t.tail_cell;
  Pctx.commit p ~updated:true;
  t

let enqueue t p value =
  if value <= 0 || value >= 1 lsl 49 then invalid_arg "Ms_queue.enqueue: value out of range";
  let node = alloc_node t p ~value ~next:Ptr.null in
  let rec attempt () =
    let tail = Ptr.addr_of (Pctx.read_traverse p t.tail_cell) in
    let next = Pctx.read_critical p (fnext ~stride:t.stride tail) in
    if Ptr.is_null next then begin
      if Pctx.cas p (fnext ~stride:t.stride tail) ~expected:next ~desired:node then begin
        (* Linking CAS is the linearization point; persist it, then swing
           the tail (failure is benign — someone helped). *)
        Pctx.persist p (fnext ~stride:t.stride tail);
        ignore (Pctx.cas p t.tail_cell ~expected:tail ~desired:node);
        Pctx.commit p ~updated:true
      end
      else attempt ()
    end
    else begin
      (* Tail is lagging: help swing it, then retry. *)
      ignore (Pctx.cas p t.tail_cell ~expected:tail ~desired:(Ptr.addr_of next));
      attempt ()
    end
  in
  attempt ()

let rec dequeue t p =
  let head = Ptr.addr_of (Pctx.read_traverse p t.head_cell) in
  let tail = Ptr.addr_of (Pctx.read_traverse p t.tail_cell) in
  let next = Pctx.read_critical p (fnext ~stride:t.stride head) in
  if head = tail then begin
    if Ptr.is_null next then begin
      Pctx.commit p ~updated:false;
      None
    end
    else begin
      (* Tail lagging behind a concurrent enqueue: help. *)
      ignore (Pctx.cas p t.tail_cell ~expected:tail ~desired:(Ptr.addr_of next));
      dequeue t p
    end
  end
  else if Ptr.is_null next then (
    (* Transient: head read raced a swing; retry. *)
    dequeue t p)
  else begin
    let value = Pctx.read_critical p (fvalue ~stride:t.stride (Ptr.addr_of next)) in
    if Pctx.cas p t.head_cell ~expected:head ~desired:(Ptr.addr_of next) then begin
      Pctx.persist p t.head_cell;
      Pctx.commit p ~updated:true;
      Some value
    end
    else dequeue t p
  end

let repair t p =
  (* Post-crash recovery: the tail pointer is deliberately never persisted
     on the hot path (the linking CAS is the durable linearization point),
     so after a crash [tail_cell] may lag arbitrarily — or trail the head.
     Walk forward along persisted next links and durably swing the tail to
     the last reachable node, completing any interrupted enqueue's swing. *)
  let rec advance swings =
    let tail = Ptr.addr_of (Pctx.read_critical p t.tail_cell) in
    let next = Pctx.read_critical p (fnext ~stride:t.stride tail) in
    if Ptr.is_null next then swings
    else begin
      ignore (Pctx.cas p t.tail_cell ~expected:tail ~desired:(Ptr.addr_of next));
      advance (swings + 1)
    end
  in
  let n = advance 0 in
  if n > 0 then Pctx.persist p t.tail_cell;
  Pctx.commit p ~updated:(n > 0);
  n

let to_list_unsafe t system =
  let module S = Skipit_core.System in
  let peek addr = Strategy.lap_strip (S.peek_word system addr) in
  let limit = Node.walk_limit t.alloc in
  let head = Ptr.addr_of (peek t.head_cell) in
  let rec walk node steps acc =
    if steps > limit then raise (Node.Cycle node);
    let next = Ptr.addr_of (peek (fnext ~stride:t.stride node)) in
    if Ptr.is_null next then List.rev acc
    else walk next (steps + 1) (peek (fvalue ~stride:t.stride next) :: acc)
  in
  walk head 0 []

let rebind t alloc = { t with alloc }
