module Pctx = Skipit_persist.Pctx
module Strategy = Skipit_persist.Strategy
module Allocator = Skipit_mem.Allocator

let max_level = 12
let tail_key = 1 lsl 50

(* Node layout: 0 = key, 1 = height, 2+l = next at level l. *)
type t = { head : int; tail : int; alloc : Allocator.t; stride : int }

let fkey ~stride n = Node.field ~stride n 0
let fheight ~stride n = Node.field ~stride n 1
let fnext ~stride n l = Node.field ~stride n (2 + l)

(* Deterministic geometric tower height from the key. *)
let height_of key =
  let h = key * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let rec count bits acc =
    if acc >= max_level then max_level
    else if bits land 1 = 1 then count (bits lsr 1) (acc + 1)
    else acc
  in
  max 1 (count h 1)

let alloc_node t p ~key ~height ~nexts =
  let n = Node.alloc t.alloc ~stride:t.stride ~fields:(2 + height) in
  Pctx.write p (fkey ~stride:t.stride n) key;
  Pctx.write p (fheight ~stride:t.stride n) height;
  Array.iteri (fun l succ -> Pctx.write p (fnext ~stride:t.stride n l) succ) nexts;
  Pctx.persist p (fkey ~stride:t.stride n);
  Pctx.persist p (fnext ~stride:t.stride n (height - 1));
  n

let create p alloc =
  let stride = Pctx.stride p in
  let t = { head = 0; tail = 0; alloc; stride } in
  let tail =
    alloc_node { t with alloc } p ~key:tail_key ~height:max_level
      ~nexts:(Array.make max_level Ptr.null)
  in
  let head =
    alloc_node { t with alloc } p ~key:0 ~height:max_level ~nexts:(Array.make max_level tail)
  in
  Pctx.commit p ~updated:true;
  { head; tail; alloc; stride }

let key_of t p n = Pctx.read_traverse p (fkey ~stride:t.stride n)
let next_of t p n l = Pctx.read_traverse p (fnext ~stride:t.stride n l)

exception Retry

(* Herlihy-Shavit find: per-level predecessors/successors, snipping marked
   nodes as they are encountered. *)
let find t p key =
  let preds = Array.make max_level t.head in
  let succs = Array.make max_level t.tail in
  let rec attempt () =
    try
      let pred = ref t.head in
      for level = max_level - 1 downto 0 do
        let curr = ref (Ptr.addr_of (next_of t p !pred level)) in
        let stop = ref false in
        while not !stop do
          let succ_raw = ref (next_of t p !curr level) in
          while Ptr.is_marked !succ_raw do
            let unmarked = Ptr.addr_of !succ_raw in
            if
              not
                (Pctx.cas p (fnext ~stride:t.stride !pred level) ~expected:!curr
                   ~desired:unmarked)
            then raise Retry;
            Pctx.persist p (fnext ~stride:t.stride !pred level);
            curr := unmarked;
            succ_raw := next_of t p !curr level
          done;
          if key_of t p !curr < key then begin
            pred := !curr;
            curr := Ptr.addr_of !succ_raw
          end
          else stop := true
        done;
        preds.(level) <- !pred;
        succs.(level) <- !curr
      done;
      key_of t p succs.(0) = key
    with Retry -> attempt ()
  in
  let found = attempt () in
  found, preds, succs

let contains t p key =
  (* Wait-free traversal: skip over marked nodes without helping. *)
  let pred = ref t.head in
  let curr = ref t.head in
  for level = max_level - 1 downto 0 do
    curr := Ptr.addr_of (next_of t p !pred level);
    let stop = ref false in
    while not !stop do
      let succ_raw = next_of t p !curr level in
      if Ptr.is_marked succ_raw then curr := Ptr.addr_of succ_raw
      else if key_of t p !curr < key then begin
        pred := !curr;
        curr := Ptr.addr_of succ_raw
      end
      else stop := true
    done
  done;
  let found = key_of t p !curr = key && not (Ptr.is_marked (next_of t p !curr 0)) in
  Pctx.commit p ~updated:false;
  found

let rec insert t p key =
  if key <= 0 || key >= tail_key then invalid_arg "Skiplist.insert: key out of range";
  let found, preds, succs = find t p key in
  if found then begin
    Pctx.commit p ~updated:false;
    false
  end
  else begin
    let height = height_of key in
    let nexts = Array.init height (fun l -> succs.(l)) in
    let node = alloc_node t p ~key ~height ~nexts in
    if
      not
        (Pctx.cas p (fnext ~stride:t.stride preds.(0) 0) ~expected:succs.(0) ~desired:node)
    then insert t p key
    else begin
      Pctx.persist p (fnext ~stride:t.stride preds.(0) 0);
      (* Link the index levels best-effort: a failed CAS refreshes the
         search once and retries; a second failure abandons that level. *)
      for l = 1 to height - 1 do
        let rec link attempts preds succs =
          let raw = next_of t p node l in
          if Ptr.is_marked raw then ()
          else begin
            if raw <> succs.(l) then Pctx.write p (fnext ~stride:t.stride node l) succs.(l);
            if
              not
                (Pctx.cas p (fnext ~stride:t.stride preds.(l) l) ~expected:succs.(l)
                   ~desired:node)
            then
              if attempts > 0 then begin
                let _, preds', succs' = find t p key in
                link (attempts - 1) preds' succs'
              end
          end
        in
        link 2 preds succs
      done;
      Pctx.commit p ~updated:true;
      true
    end
  end

let delete t p key =
  let rec attempt () =
    let found, _, succs = find t p key in
    if not found then begin
      Pctx.commit p ~updated:false;
      false
    end
    else begin
      let victim = succs.(0) in
      let height = Pctx.read_traverse p (fheight ~stride:t.stride victim) in
      (* Mark the index levels top-down. *)
      for l = height - 1 downto 1 do
        let rec mark () =
          let raw = next_of t p victim l in
          if not (Ptr.is_marked raw) then begin
            ignore
              (Pctx.cas p (fnext ~stride:t.stride victim l) ~expected:raw
                 ~desired:(Ptr.with_mark raw));
            mark ()
          end
        in
        mark ()
      done;
      (* The bottom-level mark is the linearization point. *)
      let bottom = fnext ~stride:t.stride victim 0 in
      let raw = Pctx.read_critical p bottom in
      if Ptr.is_marked raw then begin
        Pctx.commit p ~updated:false;
        false
      end
      else if Pctx.cas p bottom ~expected:raw ~desired:(Ptr.with_mark raw) then begin
        Pctx.persist p bottom;
        (* Snip eagerly. *)
        ignore (find t p key);
        Pctx.commit p ~updated:true;
        true
      end
      else attempt ()
    end
  in
  attempt ()

let repair t p =
  (* Post-crash recovery: finish interrupted deletions.  A crash between
     persisting a bottom-level mark and persisting the physical unlink
     leaves a durably-marked node still linked; walk every level top-down
     snipping marked successors with persisted CASes.  Upper levels are
     index-only (membership lives at level 0), but snipping them too keeps
     traversals from stepping through dead towers. *)
  let unlinked = ref 0 in
  for level = max_level - 1 downto 0 do
    let rec walk pred =
      let succ_raw = Pctx.read_critical p (fnext ~stride:t.stride pred level) in
      let curr = Ptr.addr_of succ_raw in
      if curr = t.tail || Ptr.is_null curr then ()
      else begin
        let curr_next = Pctx.read_critical p (fnext ~stride:t.stride curr level) in
        if Ptr.is_marked curr_next then begin
          if
            Pctx.cas p (fnext ~stride:t.stride pred level) ~expected:succ_raw
              ~desired:(Ptr.addr_of curr_next)
          then begin
            Pctx.persist p (fnext ~stride:t.stride pred level);
            if level = 0 then incr unlinked
          end;
          walk pred
        end
        else walk curr
      end
    in
    walk t.head
  done;
  Pctx.commit p ~updated:(!unlinked > 0);
  !unlinked

let elements_unsafe t system =
  let module S = Skipit_core.System in
  let peek addr = Strategy.lap_strip (S.peek_word system addr) in
  let rec walk node acc =
    if node = t.tail || Ptr.is_null node then List.rev acc
    else begin
      let key = peek (fkey ~stride:t.stride node) in
      let raw = peek (fnext ~stride:t.stride node 0) in
      let acc = if Ptr.is_marked raw then acc else key :: acc in
      walk (Ptr.addr_of raw) acc
    end
  in
  walk (Ptr.addr_of (peek (fnext ~stride:t.stride t.head 0))) []

let rebind t alloc = { t with alloc }
