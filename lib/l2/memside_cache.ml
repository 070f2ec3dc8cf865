open Skipit_sim
open Skipit_cache
module Port = Skipit_tilelink.Port
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution

type line = { mutable dirty : bool; data : int array }

type t = {
  name : string;
  geom : Geometry.t;
  access_latency : int;
  banks : Resource.Banked.t;
  bank_busy : int;
  below : Port.Memside.t;
  store : Store.t;
  (* Line storage by slot id, made on the slot's first fill and reused by
     every later one; [no_line] marks a slot never filled. *)
  lines : line array;
  no_line : line;
  stats : Stats.Registry.t;
  evictions : Stats.Registry.handle;
  dram_writebacks : Stats.Registry.handle;
  hits : Stats.Registry.handle;
  misses : Stats.Registry.handle;
  persist_writes : Stats.Registry.handle;
  mutable clock_hint : int;  (* monotone hint for LRU ordering *)
  mutable port : Port.Memside.t option;  (* upstream (LLC-facing) memside port *)
}

let stats t = t.stats
let line_base t addr = Geometry.line_base t.geom addr
let make_line t = { dirty = false; data = Array.make (Geometry.words_per_line t.geom) 0 }

(* The storage of slot [id] for a new line: the slot's own or, on its
   first fill, made. *)
let fill_line t id ~dirty =
  let l = Array.unsafe_get t.lines id in
  let l =
    if l != t.no_line then l
    else begin
      let l = make_line t in
      t.lines.(id) <- l;
      l
    end
  in
  l.dirty <- dirty;
  l

let[@inline] mem_ev t ~at ~addr op =
  if Trace.enabled () then Trace.emit ~at (Trace.Mem { name = t.name; op; addr })

let touch_clock t now = if now > t.clock_hint then t.clock_hint <- now

let bank t ~addr ~now =
  Resource.Banked.acquire_finish t.banks ~addr ~line_bytes:t.geom.Geometry.line_bytes ~now
    ~busy:t.bank_busy

(* Queueing a request arriving at [now] would suffer on its bank —
   lookahead for the upstream port's stall accounting. *)
let bank_wait t ~addr ~now =
  let b =
    Resource.Banked.bank_of t.banks ~addr ~line_bytes:t.geom.Geometry.line_bytes
  in
  Int.max 0 (Resource.earliest_free b - (now + t.access_latency))

(* Make room for [addr]: evict the victim (dirty → DRAM, off the critical
   path) and return the free slot. *)
let free_slot t ~addr ~now =
  let victim = Store.victim t.store addr in
  if Store.is_valid t.store victim then begin
    Stats.Registry.bump t.evictions;
    mem_ev t ~at:now ~addr:(Store.slot_addr t.store victim) Trace.Mem_evict;
    let vline = t.lines.(victim) in
    if vline.dirty then begin
      Stats.Registry.bump t.dram_writebacks;
      (* Off the critical path — shield the attribution cursor. *)
      let saved = Attr.suspend () in
      ignore
        (Port.Memside.write_line t.below ~addr:(Store.slot_addr t.store victim) ~data:vline.data
           ~now);
      Attr.restore saved
    end;
    Store.invalidate t.store victim
  end;
  victim

let read_line t ~addr ~now ~into =
  let addr = line_base t addr in
  touch_clock t now;
  let t0 = bank t ~addr ~now:(now + t.access_latency) in
  match Store.find t.store addr with
  | id when id <> Store.miss ->
    Stats.Registry.bump t.hits;
    mem_ev t ~at:t0 ~addr Trace.Mem_hit;
    Store.touch t.store id ~now;
    let line = t.lines.(id) in
    Attr.mark Attr.Dram ~at:t0;
    Ints.blit line.data 0 into 0 (Array.length line.data);
    Port.Reply.v ~at:t0 ~flag:line.dirty
  | _ ->
    Stats.Registry.bump t.misses;
    mem_ev t ~at:t0 ~addr Trace.Mem_miss;
    (* DRAM reads into the requester's buffer before the victim leaves
       (the victim's writeback queues behind the read); the line is then
       copied into the slot it vacated. *)
    let r = Port.Memside.read_line t.below ~addr ~now:t0 ~into in
    let id = free_slot t ~addr ~now:t0 in
    let line = fill_line t id ~dirty:false in
    Store.fill t.store id ~addr ~now;
    Ints.blit into 0 line.data 0 (Array.length line.data);
    Port.Reply.v ~at:(Port.Reply.at r) ~flag:false

let write_line t ~addr ~data ~now =
  let addr = line_base t addr in
  touch_clock t now;
  let t0 = bank t ~addr ~now:(now + t.access_latency) in
  (match Store.find t.store addr with
   | id when id <> Store.miss ->
     let line = t.lines.(id) in
     Ints.blit data 0 line.data 0 (Array.length data);
     line.dirty <- true;
     Store.touch t.store id ~now
   | _ ->
     let id = free_slot t ~addr ~now:t0 in
     let line = fill_line t id ~dirty:true in
     Ints.blit data 0 line.data 0 (Array.length data);
     Store.fill t.store id ~addr ~now);
  t0

let persist_line t ~addr ~data ~now =
  let addr = line_base t addr in
  touch_clock t now;
  Stats.Registry.bump t.persist_writes;
  let t0 = bank t ~addr ~now:(now + t.access_latency) in
  (* Update (or bypass) the cached copy, leaving it clean; durability comes
     from the write-through. *)
  (match Store.find t.store addr with
   | id when id <> Store.miss ->
     let line = t.lines.(id) in
     Ints.blit data 0 line.data 0 (Array.length data);
     line.dirty <- false
   | _ -> ());
  Port.Memside.persist_line t.below ~addr ~data ~now:t0

let persist_if_dirty t ~addr ~now =
  let addr = line_base t addr in
  match Store.find t.store addr with
  | id when id <> Store.miss && t.lines.(id).dirty ->
    persist_line t ~addr ~data:t.lines.(id).data ~now
  | _ -> now

let discard_line t ~addr =
  match Store.find t.store (line_base t addr) with
  | id when id <> Store.miss -> Store.invalidate t.store id
  | _ -> ()

let peek_word t addr =
  match Store.find t.store (line_base t addr) with
  | id when id <> Store.miss -> t.lines.(id).data.(Geometry.offset_word t.geom addr)
  | _ -> Port.Memside.peek_word t.below addr

let present t addr = Store.find t.store (line_base t addr) <> Store.miss

let dirty t addr =
  match Store.find t.store (line_base t addr) with
  | id when id <> Store.miss -> t.lines.(id).dirty
  | _ -> false

let find_data t addr =
  match Store.find t.store (line_base t addr) with
  | id when id <> Store.miss -> Some t.lines.(id).data
  | _ -> None

let iter_lines t f =
  Store.iter_valid t.store (fun addr id ->
    let line = t.lines.(id) in
    f addr ~dirty:line.dirty ~data:line.data)

let crash t =
  Store.invalidate_all t.store;
  Resource.Banked.reset t.banks

let create ?(name = "l3") ~geom ~access_latency ~banks ~bank_busy ~below ~beats_per_line () =
  let stats = Stats.Registry.create () in
  let h = Stats.Registry.handle stats in
  let store = Store.create geom in
  let no_line = { dirty = false; data = [||] } in
  let t =
    {
      name;
      geom;
      access_latency;
      banks = Resource.Banked.create ~banks (name ^ "-banks");
      bank_busy;
      below;
      store;
      lines = Array.make (Store.slots store) no_line;
      no_line;
      stats;
      evictions = h "evictions";
      dram_writebacks = h "dram_writebacks";
      hits = h "hits";
      misses = h "misses";
      persist_writes = h "persist_writes";
      clock_hint = 0;
      port = None;
    }
  in
  (* The cache is the agent on its upstream memside port: the LLC above
     reaches it only through the port, which counts beats and the bank
     queueing we report. *)
  t.port <-
    Some
      (Port.Memside.create ~name ~beats_per_line (fun waits ->
         {
           Skipit_tilelink.Port.Memside.read_line =
             (fun ~addr ~now ~into ->
               Skipit_tilelink.Port.Memside.note_wait waits (bank_wait t ~addr ~now);
               read_line t ~addr ~now ~into);
           write_line =
             (fun ~addr ~data ~now ->
               Skipit_tilelink.Port.Memside.note_wait waits (bank_wait t ~addr ~now);
               write_line t ~addr ~data ~now);
           persist_line =
             (fun ~addr ~data ~now ->
               Skipit_tilelink.Port.Memside.note_wait waits (bank_wait t ~addr ~now);
               persist_line t ~addr ~data ~now);
           persist_if_dirty = (fun ~addr ~now -> persist_if_dirty t ~addr ~now);
           discard_line = (fun ~addr -> discard_line t ~addr);
           peek_word = (fun addr -> peek_word t addr);
           crash = (fun () -> crash t);
         }));
  t

let backend t = Option.get t.port

(* Every slot's storage is copied, an invalid slot's stale line included,
   so the copy is identical to its source slot for slot: [dst] makes
   storage where [src] has some and drops it where [src] has none. *)
let copy_lines ~src ~dst =
  for id = 0 to Array.length src.lines - 1 do
    let s = Array.unsafe_get src.lines id and d = Array.unsafe_get dst.lines id in
    if s == src.no_line then begin
      if d != dst.no_line then dst.lines.(id) <- dst.no_line
    end
    else begin
      let d =
        if d != dst.no_line then d
        else begin
          let d = make_line dst in
          dst.lines.(id) <- d;
          d
        end
      in
      d.dirty <- s.dirty;
      Ints.copy_into ~src:s.data ~dst:d.data
    end
  done

(* Both memside ports, above and below, are the system's to copy. *)
let copy_into ~src ~dst =
  Resource.Banked.copy_into ~src:src.banks ~dst:dst.banks;
  Store.copy_into ~src:src.store ~dst:dst.store;
  copy_lines ~src ~dst;
  Stats.Registry.copy_into ~src:src.stats ~dst:dst.stats;
  dst.clock_hint <- src.clock_hint
