open Skipit_sim
open Skipit_tilelink
open Skipit_cache
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution

(* Metadata/state snapshot handed to tests; the live state is
   struct-of-arrays (below), so this record is built on demand. *)
type line = {
  mutable perm : Perm.t;
  mutable dirty : bool;
  mutable skip : bool;
  data : int array;
}

(* Per-line state lives in flat tables indexed by the tag store's slot id:
   one packed metadata byte (permission in bits 0-1, dirty bit 2, skip bit
   3) and the line's words at [id * words_per_line] of one int array.  The
   hit paths read and write these tables directly — no per-line records,
   no option returns, no allocation. *)
let perm_mask = 0b11
let dirty_bit = 0b100
let skip_bit = 0b1000

let perm_of_bits = function 0 -> Perm.Nothing | 1 -> Perm.Branch | _ -> Perm.Trunk
let bits_of_perm = function Perm.Nothing -> 0 | Perm.Branch -> 1 | Perm.Trunk -> 2

type t = {
  p : Params.t;
  core : int;
  store_arr : Store.t;
  meta : Bytes.t;  (* packed metadata byte, by slot id *)
  data : int array;  (* line words, [slot id * wpl + word] *)
  wpl : int;  (* words per line *)
  mshrs : Resource.t;
  mshr_comp : string Lazy.t;  (* trace component of [mshrs] *)
  wbu : Resource.t;
  port : Port.t;
  flush : Flush_unit.t;
  (* Last cycle each line's state was changed by a store, probe or eviction;
     bounds flush-queue coalescing legality (§5.3).  Int-keyed and pre-sized
     to the cache's line count: this is touched on every store and probe. *)
  last_change : Int_tbl.t;
  stats : Stats.Registry.t;
  (* Per-access counters resolved once at construction; the registry's
     string lookup is off the load/store path.  The four hit/miss handles
     are reported at construction (their keys always print); the others
     report from their first bump. *)
  load_hits : Stats.Registry.handle;
  store_hits : Stats.Registry.handle;
  load_misses : Stats.Registry.handle;
  store_misses : Stats.Registry.handle;
  evictions_dirty : Stats.Registry.handle;
  evictions_clean : Stats.Registry.handle;
  load_forwards : Stats.Registry.handle;
  load_nacks : Stats.Registry.handle;
  store_nacks : Stats.Registry.handle;
  store_upgrades : Stats.Registry.handle;
  cbo_invals : Stats.Registry.handle;
  cbo_zeros : Stats.Registry.handle;
  probes_handled : Stats.Registry.handle;
  (* Scratch completion time of the most recent [load_word]/[cas_word]
     (or the ack of the most recent [cbo]): the hot API returns the payload
     unboxed and parks the timestamp here, so a hit performs zero
     minor-heap allocation. *)
  mutable done_at : int;
  (* Scratch cycle parked by [refill] (grant arrival) and [writable_line]
     (write may retire) for their caller; their result is the slot id, so
     neither returns a pair. *)
  mutable line_at : int;
}

let core t = t.core
let params t = t.p
let flush_unit t = t.flush
let stats t = t.stats
let done_at t = t.done_at

let line_base t addr = Geometry.line_base t.p.Params.l1_geom addr
let word_off t addr = Geometry.offset_word t.p.Params.l1_geom addr
let beats t = Params.data_beats t.p

let meta_of t id = Char.code (Bytes.unsafe_get t.meta id)
let set_meta t id m = Bytes.unsafe_set t.meta id (Char.unsafe_chr m)
let line_perm t id = perm_of_bits (meta_of t id land perm_mask)
let set_perm t id p = set_meta t id (meta_of t id land lnot perm_mask lor bits_of_perm p)
let line_dirty t id = meta_of t id land dirty_bit <> 0
let line_skip t id = meta_of t id land skip_bit <> 0

let set_dirty t id b =
  let m = meta_of t id in
  set_meta t id (if b then m lor dirty_bit else m land lnot dirty_bit)

let set_skip t id b =
  let m = meta_of t id in
  set_meta t id (if b then m lor skip_bit else m land lnot skip_bit)

let word t id off = Array.unsafe_get t.data ((id * t.wpl) + off)
let set_word t id off v = Array.unsafe_set t.data ((id * t.wpl) + off) v
let copy_line t id = Array.sub t.data (id * t.wpl) t.wpl

(* Serialize [beats] of an outgoing/incoming message on a shared channel
   whose serialization time is already part of [finish]: contention-free
   sends cost nothing extra, concurrent senders queue. *)
let channel_c t ~addr ~finish ~beats = Port.send_c t.port ~addr ~finish ~beats
let channel_d t ~addr ~finish ~beats = Port.recv_d t.port ~addr ~finish ~beats

let[@inline] l1_ev t ~at ~addr op =
  if Trace.enabled () then Trace.emit ~at (Trace.L1 { core = t.core; op; addr })

let note_change t ~addr ~now = Int_tbl.replace t.last_change (line_base t addr) now

let last_change t ~addr =
  Int_tbl.find_default t.last_change (line_base t addr) ~default:min_int

let find_line t addr = Store.find t.store_arr (line_base t addr)

(* Victim eviction through the writeback unit (§3.3): dirty lines release
   their data to the L2; clean lines send a permission report so the
   directory stays exact.  Honours the §5.4.2 interlock with the flush unit.
   Returns the cycle at which the slot is free for refill (the L2-side ack
   proceeds off the critical path). *)
let evict_slot t id ~now =
  let vaddr = Store.slot_addr t.store_arr id in
  let t0 = Flush_unit.block_until t.flush ~addr:vaddr ~now in
  note_change t ~addr:vaddr ~now:t0;
  let perm = line_perm t id in
  let t_free =
    if line_dirty t id then begin
      Stats.Registry.bump t.evictions_dirty;
      l1_ev t ~at:t0 ~addr:vaddr Trace.Evict_dirty;
      let rid = Trace.req_start ~at:t0 ~cls:Trace.Cls_writeback ~core:t.core ~addr:vaddr in
      let t_buf = Resource.acquire_finish t.wbu ~now:t0 ~busy:(beats t) in
      let t_sent = channel_c t ~addr:vaddr ~finish:t_buf ~beats:(beats t) in
      let shrink = Perm.shrink_for ~from:perm ~cap:Perm.Nothing in
      (* The L2-side ack is off the critical path: its future-dated L2/DRAM
         completion times must not advance the attribution cursor. *)
      let saved = Attr.suspend () in
      ignore (Port.release t.port ~addr:vaddr ~shrink ~data:t.data ~off:(id * t.wpl) ~now:t_sent);
      Attr.restore saved;
      Trace.req_end ~at:t_sent rid;
      t_sent
    end
    else begin
      Stats.Registry.bump t.evictions_clean;
      l1_ev t ~at:t0 ~addr:vaddr Trace.Evict_clean;
      let shrink = Perm.shrink_for ~from:perm ~cap:Perm.Nothing in
      let saved = Attr.suspend () in
      ignore (Port.release t.port ~addr:vaddr ~shrink ~data:Port.no_data ~off:0 ~now:t0);
      Attr.restore saved;
      t0 + 1
    end
  in
  Store.invalidate t.store_arr id;
  t_free

(* Fetch a line at [target] permission through an MSHR: pick and evict a
   victim, Acquire from the L2 (which writes the line straight into the
   slot's storage), install with the skip bit from the grant flavour
   (GrantData vs GrantDataDirty, §6.1).  The MSHR is picked on entry and
   held until the grant lands.  Returns the slot id and parks the grant
   completion time in [line_at]. *)
let refill t ~addr ~grow ~now =
  let addr = line_base t addr in
  let idx = Resource.min_index t.mshrs in
  let start = Int.max now (Resource.earliest_free t.mshrs) in
  if Trace.enabled () then
    Trace.emit ~at:start
      (Trace.Resource { comp = Lazy.force t.mshr_comp; idx; op = Trace.Res_alloc });
  Attr.mark Attr.Mshr ~at:start;
  (* Upgrade in place (Branch → Trunk) needs no victim. *)
  let present = find_line t addr in
  let id = if present <> Store.miss then present else Store.victim t.store_arr addr in
  let t_slot =
    if present = Store.miss && Store.is_valid t.store_arr id then evict_slot t id ~now:start
    else start
  in
  Attr.mark Attr.Mshr ~at:t_slot;
  let t_sent = Port.send_a t.port ~addr ~now:t_slot in
  let r = Port.acquire t.port ~addr ~grow ~now:t_sent ~into:t.data ~off:(id * t.wpl) in
  (* Grant data shares the D channel with every other response into
     this core. *)
  let done_at = channel_d t ~addr ~finish:(Port.Reply.at r) ~beats:(beats t) in
  Store.fill t.store_arr id ~addr ~now:done_at;
  set_meta t id
    (bits_of_perm (Perm.grow_to grow) lor (if Port.Reply.flag r then 0 else skip_bit));
  if Trace.enabled () then
    Trace.emit ~at:done_at
      (Trace.Resource { comp = Lazy.force t.mshr_comp; idx; op = Trace.Res_free });
  Attr.mark Attr.Mshr ~at:done_at;
  Resource.hold t.mshrs ~idx ~start ~finish:done_at;
  t.line_at <- done_at;
  id

let rec load_word t ~addr ~now =
  Attr.activate ~core:t.core;
  match find_line t addr with
  | id when id <> Store.miss ->
    Stats.Registry.bump t.load_hits;
    l1_ev t ~at:now ~addr Trace.Load_hit;
    Store.touch t.store_arr id ~now;
    t.done_at <- now + t.p.Params.l1_load_to_use;
    Attr.mark Attr.L1_hit ~at:t.done_at;
    word t id (word_off t addr)
  | _ -> (
    let base = line_base t addr in
    match Flush_unit.load_conflict t.flush ~addr:base ~now with
    | Flush_unit.Load_forward tb ->
      (* §5.3: the FSHR's filled data buffer is forwarded to the load. *)
      Stats.Registry.bump t.load_forwards;
      l1_ev t ~at:now ~addr Trace.Load_forward;
      t.done_at <- tb + t.p.Params.l1_load_to_use;
      Attr.mark Attr.Fshr ~at:t.done_at;
      Port.peek_word t.port addr
    | Flush_unit.Load_wait tw ->
      Stats.Registry.bump t.load_nacks;
      l1_ev t ~at:now ~addr Trace.Load_nack;
      Attr.mark Attr.Fshr ~at:(tw + t.p.Params.nack_retry_delay);
      load_word t ~addr ~now:(tw + t.p.Params.nack_retry_delay)
    | Flush_unit.Load_no_conflict ->
      Stats.Registry.bump t.load_misses;
      l1_ev t ~at:now ~addr Trace.Load_miss;
      let rid = Trace.req_start ~at:now ~cls:Trace.Cls_load_miss ~core:t.core ~addr in
      let id = refill t ~addr ~grow:Perm.N_to_B ~now in
      let t_done = t.line_at in
      Trace.req_end ~at:t_done rid;
      t.done_at <- t_done + t.p.Params.l1_load_to_use;
      Attr.mark Attr.L1_hit ~at:t.done_at;
      word t id (word_off t addr))

(* Obtain a Trunk copy for a write-type access, honouring the §5.3 pending-
   writeback conditions; returns the slot id and parks the cycle the write
   may retire in [line_at]. *)
let writable_line t ~addr ~now =
  Attr.activate ~core:t.core;
  let base = line_base t addr in
  let now =
    let tw = Flush_unit.store_proceed_at t.flush ~addr:base ~now in
    if tw > now then begin
      Stats.Registry.bump t.store_nacks;
      l1_ev t ~at:now ~addr Trace.Store_nack;
      Attr.mark Attr.Fshr ~at:tw;
      tw
    end
    else now
  in
  match find_line t addr with
  | id when id <> Store.miss && Perm.includes (line_perm t id) Perm.Trunk ->
    Stats.Registry.bump t.store_hits;
    l1_ev t ~at:now ~addr Trace.Store_hit;
    Store.touch t.store_arr id ~now;
    Attr.mark Attr.L1_hit ~at:(now + t.p.Params.l1_store_commit);
    t.line_at <- now + t.p.Params.l1_store_commit;
    id
  | id when id <> Store.miss ->
    (* Branch → Trunk upgrade; data is re-granted (no AcquirePerm, §3.3). *)
    Stats.Registry.bump t.store_upgrades;
    l1_ev t ~at:now ~addr Trace.Store_upgrade;
    let rid = Trace.req_start ~at:now ~cls:Trace.Cls_store_miss ~core:t.core ~addr in
    let id = refill t ~addr ~grow:Perm.B_to_T ~now in
    let t_done = t.line_at in
    Trace.req_end ~at:t_done rid;
    Attr.mark Attr.L1_hit ~at:(t_done + t.p.Params.l1_store_commit);
    t.line_at <- t_done + t.p.Params.l1_store_commit;
    id
  | _ ->
    Stats.Registry.bump t.store_misses;
    l1_ev t ~at:now ~addr Trace.Store_miss;
    let rid = Trace.req_start ~at:now ~cls:Trace.Cls_store_miss ~core:t.core ~addr in
    let id = refill t ~addr ~grow:Perm.N_to_T ~now in
    let t_done = t.line_at in
    Trace.req_end ~at:t_done rid;
    Attr.mark Attr.L1_hit ~at:(t_done + t.p.Params.l1_store_commit);
    t.line_at <- t_done + t.p.Params.l1_store_commit;
    id

let store t ~addr ~value ~now =
  let id = writable_line t ~addr ~now in
  let t_done = t.line_at in
  set_word t id (word_off t addr) value;
  set_dirty t id true;
  (* The architectural state change happens in program order at issue; the
     drain completion time is a background timing artefact (§3.2) and must
     not poison the §5.3 coalescing window. *)
  note_change t ~addr ~now;
  t_done

let cas_word t ~addr ~expected ~desired ~now =
  let id = writable_line t ~addr ~now in
  t.done_at <- t.line_at + t.p.Params.cas_extra;
  let off = word_off t addr in
  if word t id off = expected then begin
    set_word t id off desired;
    set_dirty t id true;
    note_change t ~addr ~now;
    true
  end
  else false

(* The flush unit's way back into this cache while an FSHR walks: closed
   functions, so a CBO builds no closure.  The dirty line goes to the L2
   straight from the slot's storage. *)
let cbo_sink =
  {
    Flush_unit.apply_meta =
      (fun t ~slot effect ->
        match effect with
        | Fshr_fsm.Invalidate_line -> Store.invalidate t.store_arr slot
        | Fshr_fsm.Clear_dirty -> set_dirty t slot false
        | Fshr_fsm.No_meta_change -> ());
    send =
      (fun t ~slot ~addr ~kind ~with_data ~now ->
        (* The FSHR's beats are its own serialization; arbitrate them onto
           the shared C channel before the message travels. *)
        let sent = channel_c t ~addr ~finish:now ~beats:(if with_data then beats t else 1) in
        if with_data then
          Port.root_release t.port ~addr ~kind ~data:t.data ~off:(slot * t.wpl) ~now:sent
        else Port.root_release t.port ~addr ~kind ~data:Port.no_data ~off:0 ~now:sent);
  }

let cbo t ~addr ~kind ~now =
  Attr.activate ~core:t.core;
  let base = line_base t addr in
  let cls =
    match kind with
    | Message.Wb_clean -> Trace.Cls_cbo_clean
    | Message.Wb_flush -> Trace.Cls_cbo_flush
  in
  let rid = Trace.req_start ~at:now ~cls ~core:t.core ~addr:base in
  (* The CBO.X travels the STQ like a store (§5.1) and reads the metadata
     array on arrival; the snapshot is carried in the flush request. *)
  let t_access = now + t.p.Params.cbo_issue_cost in
  let id = find_line t base in
  let hit = id <> Store.miss in
  let dirty = hit && line_dirty t id in
  let skip = hit && line_skip t id in
  if t.p.Params.skip_it && hit && (not dirty) && skip then begin
    (* §6.1 fast drop: the line is persisted; signal success to the LSU. *)
    Flush_unit.note_skip_drop t.flush;
    l1_ev t ~at:t_access ~addr:base Trace.Skip_drop;
    Trace.req_end ~at:t_access rid;
    Attr.mark Attr.L1_hit ~at:t_access;
    t.done_at <- t_access;
    t_access
  end
  else begin
    let commit_at =
      Flush_unit.submit t.flush cbo_sink t ~addr:base ~kind ~hit ~dirty ~slot:id
        ~last_line_change:(last_change t ~addr:base) ~now:t_access
    in
    let ack_at = Flush_unit.ack_at t.flush in
    let coalesced = Flush_unit.last_coalesced t.flush in
    (* A completed CBO.CLEAN leaves the line persisted: its skip bit may be
       set (§6.2 — L2 wrote the data through to DRAM and cleared its dirty
       bit). *)
    (match kind with
     | Message.Wb_clean when hit && not coalesced ->
       if Perm.compare (line_perm t id) Perm.Nothing > 0 then set_skip t id true
     | Message.Wb_clean | Message.Wb_flush -> ());
    if coalesced then l1_ev t ~at:commit_at ~addr:base Trace.Cbo_coalesced;
    Trace.req_end ~at:ack_at rid;
    Attr.mark Attr.Flushq_wait ~at:commit_at;
    t.done_at <- ack_at;
    commit_at
  end

let cbo_inval t ~addr ~now =
  Attr.activate ~core:t.core;
  let base = line_base t addr in
  Stats.Registry.bump t.cbo_invals;
  (* Wait out any pending writeback of the line (its FSHR owns the
     metadata, §5.4), then discard the local copy and tell the L2 to revoke
     the rest. *)
  let t0 = Flush_unit.line_ack_at t.flush ~addr:base ~now + t.p.Params.l1_meta_access in
  Attr.mark Attr.Fshr ~at:t0;
  (match find_line t base with
   | id when id <> Store.miss -> Store.invalidate t.store_arr id
   | _ -> ());
  note_change t ~addr:base ~now:t0;
  Port.root_inval t.port ~addr:base ~now:t0

let cbo_zero t ~addr ~now =
  let base = line_base t addr in
  Stats.Registry.bump t.cbo_zeros;
  let id = writable_line t ~addr:base ~now in
  let t_done = t.line_at in
  Array.fill t.data (id * t.wpl) t.wpl 0;
  set_dirty t id true;
  note_change t ~addr:base ~now:t_done;
  t_done

let fence t ~now =
  Attr.activate ~core:t.core;
  let t_done = Flush_unit.fence_ready_at t.flush ~now + t.p.Params.fence_base_cost in
  Attr.mark Attr.Fence ~at:t_done;
  t_done

let handle_probe t ~addr ~cap ~now ~into ~off =
  let base = line_base t addr in
  Stats.Registry.bump t.probes_handled;
  l1_ev t ~at:now ~addr:base Trace.Probe_handled;
  let t0 = Flush_unit.block_until t.flush ~addr:base ~now in
  let meta = t.p.Params.l1_meta_access in
  match find_line t base with
  | id when id <> Store.miss ->
    if Perm.compare (line_perm t id) cap > 0 then begin
      let dirty = line_dirty t id && Perm.compare cap Perm.Trunk < 0 in
      if dirty then Ints.blit t.data (id * t.wpl) into off t.wpl;
      (match cap with
       | Perm.Nothing -> Store.invalidate t.store_arr id
       | Perm.Branch | Perm.Trunk ->
         set_perm t id cap;
         if dirty then begin
           set_dirty t id false;
           (* The dirty data now lives (only) in the L2: not persisted. *)
           set_skip t id false
         end);
      note_change t ~addr:base ~now:t0;
      let wire = if dirty then beats t else 1 in
      let sent = channel_c t ~addr:base ~finish:(t0 + meta + wire) ~beats:wire in
      Port.Reply.v ~at:(sent + t.p.Params.link_latency) ~flag:dirty
    end
    else Port.Reply.v ~at:(t0 + meta + 1 + t.p.Params.link_latency) ~flag:false
  | _ -> Port.Reply.v ~at:(t0 + meta + 1 + t.p.Params.link_latency) ~flag:false

let peek_word t addr =
  match find_line t addr with
  | id when id <> Store.miss -> word t id (word_off t addr)
  | _ -> Port.peek_word t.port addr

let line_state t addr =
  match find_line t addr with
  | id when id <> Store.miss ->
    Some
      {
        perm = line_perm t id;
        dirty = line_dirty t id;
        skip = line_skip t id;
        data = copy_line t id;
      }
  | _ -> None

let held_lines t =
  let acc = ref [] in
  Store.iter_valid t.store_arr (fun addr id -> acc := (addr, line_perm t id) :: !acc);
  !acc

let slots t = Store.slots t.store_arr
let slot_valid t id = Store.is_valid t.store_arr id
let slot_addr t id = Store.slot_addr t.store_arr id
let find_slot = find_line
let slot_perm = line_perm
let slot_dirty = line_dirty
let slot_skip = line_skip
let slot_word t id off = t.data.((id * t.wpl) + off)

let mshrs t = t.mshrs
let wbu t = t.wbu

let crash t =
  Store.invalidate_all t.store_arr;
  (* In-flight refills and writebacks die with the power: occupancy must
     not leak into the next run on this system. *)
  Resource.reset t.mshrs;
  Resource.reset t.wbu;
  Flush_unit.crash t.flush;
  Int_tbl.clear t.last_change

let create p ~core ~port =
  let stats = Stats.Registry.create () in
  let reported name = let h = Stats.Registry.handle stats name in Stats.Registry.bump_by h 0; h in
  let store_arr =
    let policy =
      match p.Params.l1_replacement with
      | `Lru -> Store.Lru
      | `Random -> Store.Random (Skipit_sim.Rng.create ~seed:(0xCAFE + core))
    in
    Store.create ~policy p.Params.l1_geom
  in
  let slots = Store.slots store_arr in
  let wpl = Geometry.words_per_line p.Params.l1_geom in
  let t =
    {
      p;
      core;
      store_arr;
      meta = Bytes.make slots '\000';
      data = Array.make (slots * wpl) 0;
      wpl;
      mshrs = Resource.create ~count:p.Params.l1_mshrs (Printf.sprintf "l1-mshr-%d" core);
      mshr_comp = lazy (Printf.sprintf "l1.%d.mshr" core);
      wbu = Resource.create (Printf.sprintf "l1-wbu-%d" core);
      port;
      flush = Flush_unit.create p ~core;
      last_change =
        Int_tbl.create ~size_hint:(Geometry.lines p.Params.l1_geom) ();
      stats;
      load_hits = reported "load_hits";
      store_hits = reported "store_hits";
      load_misses = reported "load_misses";
      store_misses = reported "store_misses";
      evictions_dirty = Stats.Registry.handle stats "evictions_dirty";
      evictions_clean = Stats.Registry.handle stats "evictions_clean";
      load_forwards = Stats.Registry.handle stats "load_forwards";
      load_nacks = Stats.Registry.handle stats "load_nacks";
      store_nacks = Stats.Registry.handle stats "store_nacks";
      store_upgrades = Stats.Registry.handle stats "store_upgrades";
      cbo_invals = Stats.Registry.handle stats "cbo_invals";
      cbo_zeros = Stats.Registry.handle stats "cbo_zeros";
      probes_handled = Stats.Registry.handle stats "probes_handled";
      done_at = 0;
      line_at = 0;
    }
  in
  (* The cache is the client agent of its port: B-channel probes from the
     manager arrive here. *)
  Port.connect_client port
    { Port.probe = (fun ~addr ~cap ~now ~into ~off -> handle_probe t ~addr ~cap ~now ~into ~off) };
  t

(* The port is wired between this cache and the L2; whoever owns the
   wiring (the system) copies it. *)
let copy_into ~src ~dst =
  Store.copy_into ~src:src.store_arr ~dst:dst.store_arr;
  Bytes.blit src.meta 0 dst.meta 0 (Bytes.length src.meta);
  Ints.copy_into ~src:src.data ~dst:dst.data;
  Resource.copy_into ~src:src.mshrs ~dst:dst.mshrs;
  Resource.copy_into ~src:src.wbu ~dst:dst.wbu;
  Flush_unit.copy_into ~src:src.flush ~dst:dst.flush;
  Int_tbl.copy_into ~src:src.last_change ~dst:dst.last_change;
  Stats.Registry.copy_into ~src:src.stats ~dst:dst.stats;
  dst.done_at <- src.done_at;
  dst.line_at <- src.line_at
