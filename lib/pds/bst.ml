module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Allocator = Skipit_mem.Allocator

(* Sentinel keys, above every legal key (legal keys < 2^49). *)
let inf0 = 1 lsl 51
let inf1 = inf0 + 1
let inf2 = inf0 + 2

(* Node layout: 0 = key (immutable), 1 = left, 2 = right.  A leaf has null
   children.  Child-pointer words carry the NM flag (bit 0) and tag
   (bit 1). *)
type t = { root : int; s_node : int; alloc : Allocator.t; stride : int }

let fkey ~stride n = Node.field ~stride n 0
let fleft ~stride n = Node.field ~stride n 1
let fright ~stride n = Node.field ~stride n 2

let alloc_node t p ~key ~left ~right =
  let n = Node.alloc t.alloc ~stride:t.stride ~fields:3 in
  Pctx.write p (fkey ~stride:t.stride n) key;
  Pctx.write p (fleft ~stride:t.stride n) left;
  Pctx.write p (fright ~stride:t.stride n) right;
  (* Cover the node's footprint (may span two lines under FliT-adjacent's
     doubled stride). *)
  Pctx.persist p (fkey ~stride:t.stride n);
  Pctx.persist p (fright ~stride:t.stride n);
  n

let create p alloc =
  let stride = Pctx.stride p in
  let t = { root = 0; s_node = 0; alloc; stride } in
  let t = { t with root = Node.alloc alloc ~stride ~fields:3 } in
  let leaf key = alloc_node t p ~key ~left:Ptr.null ~right:Ptr.null in
  let l0 = leaf inf0 in
  let l1 = leaf inf1 in
  let l2 = leaf inf2 in
  let s_node = alloc_node t p ~key:inf1 ~left:l0 ~right:l1 in
  Pctx.write p (fkey ~stride t.root) inf2;
  Pctx.write p (fleft ~stride t.root) s_node;
  Pctx.write p (fright ~stride t.root) l2;
  Pctx.persist p (fkey ~stride t.root);
  Pctx.persist p (fright ~stride t.root);
  Pctx.commit p ~updated:true;
  { t with s_node }

let key_of t p n = Pctx.read_traverse p (fkey ~stride:t.stride n)

(* Address of the child field of [n] on the search path for [key]. *)
let edge t p n key =
  if key < key_of t p n then fleft ~stride:t.stride n else fright ~stride:t.stride n

type seek_record = {
  ancestor : int;
  successor : int;
  parent : int;
  leaf : int;
  parent_field : int;  (** Raw edge word parent→leaf (flag/tag visible). *)
}

let is_internal t p n = not (Ptr.is_null (Pctx.read_traverse p (fleft ~stride:t.stride n)))

let seek t p key =
  let rec descend ~ancestor ~successor ~parent ~parent_field ~leaf =
    if not (is_internal t p leaf) then { ancestor; successor; parent; leaf; parent_field }
    else begin
      let ancestor, successor =
        if not (Ptr.is_tagged parent_field) then parent, leaf else ancestor, successor
      in
      let current_field = Pctx.read_traverse p (edge t p leaf key) in
      descend ~ancestor ~successor ~parent:leaf ~parent_field:current_field
        ~leaf:(Ptr.addr_of current_field)
    end
  in
  let parent_field = Pctx.read_traverse p (fleft ~stride:t.stride t.s_node) in
  descend ~ancestor:t.root ~successor:t.s_node ~parent:t.s_node ~parent_field
    ~leaf:(Ptr.addr_of parent_field)

(* Remove the flagged leaf and its parent by splicing the (tagged) sibling
   edge up to the ancestor (NM cleanup).  Returns true when this call
   performed the splice. *)
let cleanup t p key sr =
  let stride = t.stride in
  let child_addr = edge t p sr.parent key in
  let sibling_of addr = if addr = fleft ~stride sr.parent then fright ~stride sr.parent else fleft ~stride sr.parent in
  let child_field = Pctx.read_critical p child_addr in
  (* The flagged edge points at the victim leaf; the other edge survives. *)
  let sibling_addr = if Ptr.is_marked child_field then sibling_of child_addr else child_addr in
  (* Tag the surviving edge so no insertion slips beneath a dying parent. *)
  let rec tag_edge tries =
    let raw = Pctx.read_critical p sibling_addr in
    if Ptr.is_tagged raw then raw
    else if Pctx.cas p sibling_addr ~expected:raw ~desired:(Ptr.with_tag raw) then
      Ptr.with_tag raw
    else if tries > 0 then tag_edge (tries - 1)
    else Pctx.read_critical p sibling_addr
  in
  let tagged = tag_edge 16 in
  let desired =
    (* Keep a flag travelling with the sibling if it had one. *)
    if Ptr.is_marked tagged then Ptr.with_mark (Ptr.addr_of tagged) else Ptr.addr_of tagged
  in
  let succ_addr = edge t p sr.ancestor key in
  let ok = Pctx.cas p succ_addr ~expected:sr.successor ~desired in
  if ok then Pctx.persist p succ_addr;
  ok

let rec insert t p key =
  if key <= 0 || key >= inf0 then invalid_arg "Bst.insert: key out of range";
  let sr = seek t p key in
  let leaf_key = key_of t p sr.leaf in
  if leaf_key = key then begin
    Pctx.commit p ~updated:false;
    false
  end
  else begin
    let new_leaf = alloc_node t p ~key ~left:Ptr.null ~right:Ptr.null in
    let left, right = if key < leaf_key then new_leaf, sr.leaf else sr.leaf, new_leaf in
    let internal = alloc_node t p ~key:(max key leaf_key) ~left ~right in
    let child_addr = edge t p sr.parent key in
    if Pctx.cas p child_addr ~expected:sr.leaf ~desired:internal then begin
      Pctx.persist p child_addr;
      Pctx.commit p ~updated:true;
      true
    end
    else begin
      (* Help a stalled deletion on this edge before retrying. *)
      let raw = Pctx.read_critical p child_addr in
      if Ptr.addr_of raw = sr.leaf && (Ptr.is_marked raw || Ptr.is_tagged raw) then
        ignore (cleanup t p key sr);
      insert t p key
    end
  end

let delete t p key =
  let rec injection () =
    let sr = seek t p key in
    if key_of t p sr.leaf <> key then begin
      Pctx.commit p ~updated:false;
      false
    end
    else begin
      let child_addr = edge t p sr.parent key in
      if Pctx.cas p child_addr ~expected:sr.leaf ~desired:(Ptr.with_mark sr.leaf) then begin
        (* Injection = linearization of the delete; persist the flag. *)
        Pctx.persist p child_addr;
        if cleanup t p key sr then begin
          Pctx.commit p ~updated:true;
          true
        end
        else cleanup_mode sr.leaf
      end
      else begin
        let raw = Pctx.read_critical p child_addr in
        if Ptr.addr_of raw = sr.leaf && (Ptr.is_marked raw || Ptr.is_tagged raw) then
          ignore (cleanup t p key sr);
        injection ()
      end
    end
  and cleanup_mode target =
    let sr = seek t p key in
    if sr.leaf <> target then begin
      (* Someone else finished our cleanup. *)
      Pctx.commit p ~updated:true;
      true
    end
    else if cleanup t p key sr then begin
      Pctx.commit p ~updated:true;
      true
    end
    else cleanup_mode target
  in
  injection ()

let contains t p key =
  let sr = seek t p key in
  let found = key_of t p sr.leaf = key && not (Ptr.is_marked sr.parent_field) in
  Pctx.commit p ~updated:false;
  found

let repair t p =
  (* Collect the keys of flagged leaves with an untimed-ish traversal using
     traverse reads, then run each interrupted deletion's cleanup through
     the ordinary seek path. *)
  let stride = t.stride in
  let flagged = ref [] in
  let rec walk node =
    if not (Ptr.is_null node) then begin
      let left = Pctx.read_traverse p (fleft ~stride node) in
      let right = Pctx.read_traverse p (fright ~stride node) in
      if not (Ptr.is_null left) then begin
        (if Ptr.is_marked left then
           let key = Pctx.read_traverse p (fkey ~stride (Ptr.addr_of left)) in
           if key < inf0 then flagged := key :: !flagged);
        (if Ptr.is_marked right then
           let key = Pctx.read_traverse p (fkey ~stride (Ptr.addr_of right)) in
           if key < inf0 then flagged := key :: !flagged);
        walk (Ptr.addr_of left);
        walk (Ptr.addr_of right)
      end
    end
  in
  walk t.s_node;
  let repaired = ref 0 in
  List.iter
    (fun key ->
      let rec finish attempts =
        if attempts > 0 then begin
          let sr = seek t p key in
          if key_of t p sr.leaf = key && Ptr.is_marked sr.parent_field then
            if cleanup t p key sr then incr repaired else finish (attempts - 1)
        end
      in
      finish 8)
    !flagged;
  Pctx.commit p ~updated:(!repaired > 0);
  !repaired

let elements_unsafe t system =
  let module S = Skipit_core.System in
  let peek addr = Strategy.lap_strip (S.peek_word system addr) in
  let stride = t.stride in
  let limit = Node.walk_limit t.alloc and visited = ref 0 in
  let rec walk node flagged acc =
    if Ptr.is_null node then acc
    else if !visited > limit then raise (Node.Cycle node)
    else begin
      incr visited;
      let left = peek (fleft ~stride node) in
      let right = peek (fright ~stride node) in
      if Ptr.is_null left then begin
        (* Leaf. *)
        let key = peek (fkey ~stride node) in
        if key < inf0 && not flagged then key :: acc else acc
      end
      else begin
        let acc = walk (Ptr.addr_of left) (Ptr.is_marked left) acc in
        walk (Ptr.addr_of right) (Ptr.is_marked right) acc
      end
    end
  in
  walk t.s_node false [] |> List.sort compare

let rebind t alloc = { t with alloc }
