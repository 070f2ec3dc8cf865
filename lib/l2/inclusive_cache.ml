open Skipit_sim
open Skipit_tilelink
open Skipit_cache
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution

(* The L2's event counters, one handle per key. *)
type counters = {
  probes : Stats.Registry.handle;
  evictions : Stats.Registry.handle;
  dram_writebacks : Stats.Registry.handle;
  hits : Stats.Registry.handle;
  misses : Stats.Registry.handle;
  grants_dirty : Stats.Registry.handle;
  grants_clean : Stats.Registry.handle;
  root_releases : Stats.Registry.handle;
  trivial_skips : Stats.Registry.handle;
  root_invals : Stats.Registry.handle;
}

let counters reg =
  let h = Stats.Registry.handle reg in
  {
    probes = h "probes";
    evictions = h "evictions";
    dram_writebacks = h "dram_writebacks";
    hits = h "hits";
    misses = h "misses";
    grants_dirty = h "grants_dirty";
    grants_clean = h "grants_clean";
    root_releases = h "root_releases";
    trivial_skips = h "trivial_skips";
    root_invals = h "root_invals";
  }

(* One NUCA bank: a full slice of the inclusive LLC's control and data
   structures.  Lines are interleaved across banks by an XOR-fold of the
   line number (see [fold_hash] below), and each bank's tag store runs on
   {e compressed} addresses — the bank bits are folded out of the line
   number — so that
   per-bank set indexing and tags partition the monolithic store exactly:
   at [l2_banks = 1] every structure, name and timing is bit-identical to
   the unbanked cache. *)
type bank = {
  b_idx : int;
  store : Store.t;  (* compressed-address tag store *)
  (* Line storage by slot id: each slot's directory entry and words, made
     on its first fill and reset in place by every later one, so a fill
     allocates nothing once the slot has been used.  The cache's [no_line]
     marks a slot never filled. *)
  lines : Directory.t array;
  mshrs : Resource.t;
  (* The ListBuffer (§3.4): channel-C requests that cannot get an MSHR wait
     here; when it is full the sender stalls until the oldest waiter is
     scheduled. *)
  list_buffer : Admission.t;
  slices : Resource.Banked.t;  (* BankedStore data slices *)
  b_stats : Stats.Registry.t;  (* per-bank counters, exported when banked *)
  b_ctr : counters;  (* handles on [b_stats]; the aggregate's when unbanked *)
  mshr_comp : string;  (* trace component for this bank's MSHRs *)
}

type t = {
  p : Params.t;
  n_banks : int;
  bank_shift : int;  (* log2 n_banks *)
  slice_shift : int;  (* log2 l2_slices, for the banked slice hash *)
  slice_mask : int;  (* l2_slices - 1 when banked and pow2, else 0 = no hash *)
  lb : int;  (* line bytes *)
  (* First attribution mark of every L2 transaction: the wait to get into
     the owning bank's MSHR/ListBuffer is a bank conflict when banked. *)
  acq_stage : Attr.stage;
  banks : bank array;
  backend : Port.Memside.t;
  (* One manager port per client core; B-channel probes route through the
     port to whatever client agent is connected on the other side. *)
  ports : Port.t option array;
  no_line : Directory.t;  (* in [lines] where a slot was never filled *)
  (* Reusable scratch for [Directory.owners_into]: the probe fan-out paths
     fill this instead of allocating an owner list per request.  Safe to
     share because a system's requests are processed one at a time and
     probe handling never re-enters the directory walk. *)
  probe_buf : int array;
  stats : Stats.Registry.t;  (* aggregate across banks *)
  ctr : counters;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create p ~backend =
  let n = p.Params.l2_banks in
  let g = p.Params.l2_geom in
  let stats = Stats.Registry.create () in
  let ctr = counters stats in
  let bank_geom =
    if n = 1 then g
    else
      Geometry.v
        ~size_bytes:(g.Geometry.size_bytes / n)
        ~ways:g.Geometry.ways ~line_bytes:g.Geometry.line_bytes
  in
  let no_line = Directory.make ~n_cores:0 ~words:0 in
  {
    p;
    n_banks = n;
    bank_shift = log2 n;
    slice_shift = log2 p.Params.l2_slices;
    slice_mask =
      (let s = p.Params.l2_slices in
       if n > 1 && s > 1 && s land (s - 1) = 0 then s - 1 else 0);
    lb = g.Geometry.line_bytes;
    acq_stage = (if n > 1 then Attr.Bank_wait else Attr.L2);
    banks =
      Array.init n (fun i ->
        let b_stats = Stats.Registry.create () in
        let store = Store.create bank_geom in
        {
          b_idx = i;
          store;
          lines = Array.make (Store.slots store) no_line;
          mshrs =
            Resource.create ~count:p.Params.l2_mshrs
              (if n = 1 then "l2-mshrs" else Printf.sprintf "l2.bank%d-mshrs" i);
          list_buffer = Admission.create ~capacity:p.Params.l2_list_buffer;
          slices =
            Resource.Banked.create ~banks:p.Params.l2_slices
              (if n = 1 then "l2-banks" else Printf.sprintf "l2.bank%d-slices" i);
          b_stats;
          b_ctr = (if n = 1 then ctr else counters b_stats);
          mshr_comp = (if n = 1 then "l2.mshr" else Printf.sprintf "l2.bank.%d.mshr" i);
        });
    backend;
    ports = Array.make p.Params.n_cores None;
    no_line;
    probe_buf = Array.make p.Params.n_cores 0;
    stats;
    ctr;
  }

let stats t = t.stats
let backend t = t.backend
let n_banks t = t.n_banks
let bank_stats t = Array.map (fun b -> b.b_stats) t.banks
let mshr_files t = Array.map (fun b -> b.mshrs) t.banks

let line t addr = Geometry.line_base t.p.Params.l2_geom addr

let make_line t = Directory.make ~n_cores:t.p.Params.n_cores ~words:(t.lb lsr 3)

(* The storage of slot [id] for a new line: the slot's own, reset, or made
   on its first fill. *)
let fill_line t b id =
  let d = Array.unsafe_get b.lines id in
  if d != t.no_line then begin
    Directory.reset d;
    d
  end
  else begin
    let d = make_line t in
    b.lines.(id) <- d;
    d
  end

let beats t = Params.data_beats t.p

(* Line-address interleaving and the compressed per-bank address space.
   The bank index is {!Port.bank_fold} of the whole line number in
   [bank_shift]-wide chunks.  [compress] shifts the low bank-field out of
   the line number; [decompress] recovers it from the bank index and the
   fold of the surviving upper bits (fold(line) = low xor fold(high), so
   low = b_idx xor fold(high)) — with one bank all three are the identity. *)
let fold_hash t line = Port.bank_fold ~shift:t.bank_shift ~mask:(t.n_banks - 1) line

let bank_of t addr = if t.n_banks = 1 then 0 else fold_hash t (addr / t.lb)
let bank_for t addr = t.banks.(bank_of t addr)

let compress t addr =
  ((addr / t.lb) lsr t.bank_shift * t.lb) lor (addr land (t.lb - 1))

let decompress t b caddr =
  if t.n_banks = 1 then caddr
  else
    let high = caddr / t.lb in
    ((high lsl t.bank_shift) lor (b.b_idx lxor fold_hash t high)) * t.lb

(* Aggregate counters keep their monolithic names (the golden pins);
   per-bank shadows are kept only when actually banked. *)
let incr_stat t b key =
  Stats.Registry.bump (key t.ctr);
  if t.n_banks > 1 then Stats.Registry.bump (key b.b_ctr)

let[@inline] l2_ev ~at ~addr op = if Trace.enabled () then Trace.emit ~at (Trace.L2 { op; addr })

(* Within a NUCA bank the data-array slice is picked by the same XOR-fold
   of the compressed line number, so strided patterns the bank hash just
   decorrelated don't re-collide on one slice.  The monolithic cache keeps
   the original low-bit slice interleave (the golden timing), as does a
   non-power-of-two slice count. *)
let slice_access t b ~caddr ~now =
  let addr =
    if t.slice_mask = 0 then caddr
    else Port.bank_fold ~shift:t.slice_shift ~mask:t.slice_mask (caddr / t.lb) * t.lb
  in
  Resource.Banked.acquire_finish b.slices ~addr ~line_bytes:t.lb ~now
    ~busy:t.p.Params.l2_slice_busy

(* Probe one client.  The client agent behind the port accounts for its own
   processing and the C-channel serialization; we add the outgoing B-channel
   travel here and trust the reply to be the ProbeAck arrival at the L2.
   Dirty data handed back lands in the directory's line. *)
let probe_one t b ~core ~addr ~cap ~now dir =
  match t.ports.(core) with
  | Some port ->
    incr_stat t b (fun c -> c.probes);
    l2_ev ~at:now ~addr L2_probe;
    Port.probe port ~addr ~cap ~now:(now + t.p.Params.link_latency) ~into:dir.Directory.data
      ~off:0
  | None -> invalid_arg (Printf.sprintf "Inclusive_cache: no client port for core %d" core)

(* Probe the first [n] cores of [t.probe_buf] in parallel, capping each to
   [cap]; merge any dirty data into the directory's line.  Returns the
   time the last ProbeAck lands. *)
let probe_all t b ~addr ~cap ~n ~now dir =
  let t_done = ref now in
  for i = 0 to n - 1 do
    let core = t.probe_buf.(i) in
    let prev = Directory.owner_perm dir core in
    let r = probe_one t b ~core ~addr ~cap ~now dir in
    if Port.Reply.flag r then dir.Directory.dirty <- true;
    let next = if Perm.compare prev cap > 0 then cap else prev in
    Directory.set_owner dir core next;
    if Port.Reply.at r > !t_done then t_done := Port.Reply.at r
  done;
  !t_done

(* The Trunk owner of [dir], if any and other than [core], into
   [t.probe_buf]; returns how many to probe (0 or 1). *)
let foreign_trunk_into t dir ~core =
  let i = ref 0 in
  while !i < t.p.Params.n_cores && not (Perm.equal (Directory.owner_perm dir !i) Perm.Trunk) do
    incr i
  done;
  if !i < t.p.Params.n_cores && !i <> core then begin
    t.probe_buf.(0) <- !i;
    1
  end
  else 0

(* Evict a valid L2 victim: revoke every L1 copy (inclusion), then push dirty
   data to DRAM.  The DRAM write proceeds off the critical path; the returned
   time is when the slot is vacated. *)
let evict_victim t b id ~now =
  let vaddr = decompress t b (Store.slot_addr b.store id) in
  let dir = b.lines.(id) in
  incr_stat t b (fun c -> c.evictions);
  l2_ev ~at:now ~addr:vaddr L2_evict;
  let n = Directory.owners_into dir Perm.Nothing ~exclude:(-1) t.probe_buf in
  let t_probed = probe_all t b ~addr:vaddr ~cap:Perm.Nothing ~n ~now dir in
  if dir.Directory.dirty then begin
    incr_stat t b (fun c -> c.dram_writebacks);
    l2_ev ~at:t_probed ~addr:vaddr L2_writeback;
    (* DRAM write proceeds off the critical path: keep its future-dated
       completion out of the attribution cursor. *)
    let saved = Attr.suspend () in
    ignore (Port.Memside.write_line t.backend ~addr:vaddr ~data:dir.Directory.data ~now:t_probed);
    Attr.restore saved
  end;
  Store.invalidate b.store id;
  t_probed

(* An MSHR is picked when a transaction reaches its bank and held until
   the transaction's finish is known (Resource pick/hold); these mark the
   two ends. *)
let mshr_alloc t b ~idx ~at =
  if Trace.enabled () then
    Trace.emit ~at (Trace.Resource { comp = b.mshr_comp; idx; op = Trace.Res_alloc });
  Attr.mark t.acq_stage ~at

let mshr_free b ~idx ~at =
  if Trace.enabled () then
    Trace.emit ~at (Trace.Resource { comp = b.mshr_comp; idx; op = Trace.Res_free })

(* Close an acquire: free and hold its MSHR, count the grant flavour and
   reply with the D-channel serialization beats for the data plus
   travel. *)
let grant t b ~idx ~start ~finish ~dirty =
  mshr_free b ~idx ~at:finish;
  Resource.hold b.mshrs ~idx ~start ~finish;
  incr_stat t b (if dirty then fun c -> c.grants_dirty else fun c -> c.grants_clean);
  Port.Reply.v ~at:(finish + beats t + t.p.Params.link_latency) ~flag:dirty

let acquire t ~core ~addr ~grow ~now ~into ~off =
  let addr = line t addr in
  let b = bank_for t addr in
  let caddr = compress t addr in
  let arrive = now + t.p.Params.link_latency in
  let target = Perm.grow_to grow in
  let idx = Resource.min_index b.mshrs in
  let start = Int.max arrive (Resource.earliest_free b.mshrs) in
  mshr_alloc t b ~idx ~at:start;
  let tm = start + t.p.Params.l2_tag_access in
  match Store.find b.store caddr with
  | id when id <> Store.miss ->
    incr_stat t b (fun c -> c.hits);
    l2_ev ~at:start ~addr L2_hit;
    let dir = b.lines.(id) in
    let n_probe =
      match target with
      | Perm.Trunk -> Directory.owners_into dir Perm.Nothing ~exclude:core t.probe_buf
      | Perm.Branch | Perm.Nothing -> foreign_trunk_into t dir ~core
    in
    let cap = match target with Perm.Trunk -> Perm.Nothing | _ -> Perm.Branch in
    let tm = probe_all t b ~addr ~cap ~n:n_probe ~now:tm dir in
    let tm = slice_access t b ~caddr ~now:tm in
    Directory.set_owner dir core target;
    Store.touch b.store id ~now:tm;
    Ints.blit dir.Directory.data 0 into off (Array.length dir.Directory.data);
    Attr.mark Attr.L2 ~at:tm;
    grant t b ~idx ~start ~finish:tm ~dirty:dir.Directory.dirty
  | _ ->
    incr_stat t b (fun c -> c.misses);
    l2_ev ~at:start ~addr L2_miss;
    let victim = Store.victim b.store caddr in
    let t_evict =
      if Store.is_valid b.store victim then evict_victim t b victim ~now:tm else tm
    in
    Attr.mark Attr.L2 ~at:t_evict;
    (* The read lands straight in the victim slot's storage (the evicted
       line has left it), and the grant copies it once into the client. *)
    let dir = fill_line t b victim in
    let data = dir.Directory.data in
    let r = Port.Memside.read_line t.backend ~addr ~now:tm ~into:data in
    (* A dirty memory-side copy means the line is not persisted: the
       L2 copy inherits the dirty bit so grants carry GrantDataDirty
       and a later RootRelease pushes it to DRAM (§6.2 one level
       deeper). *)
    let dirty_below = Port.Reply.flag r in
    dir.Directory.dirty <- dirty_below;
    Directory.set_owner dir core target;
    let t_fill = Int.max t_evict (Port.Reply.at r) in
    Store.fill b.store victim ~addr:caddr ~now:t_fill;
    Ints.blit data 0 into off (Array.length data);
    Attr.mark Attr.L2 ~at:t_fill;
    grant t b ~idx ~start ~finish:t_fill ~dirty:dirty_below

(* Channel-C requests pass through the owning bank's ListBuffer before one
   of its MSHRs; the buffer's admission stall models SinkC back-pressure
   (§3.4).  [sink_c_open] admits the request and marks the picked MSHR's
   allocation, returning the cycle it starts; [sink_c_close] frees and
   holds that MSHR to [finish] and records the ListBuffer departure. *)
let sink_c_open t b ~idx ~arrive =
  let admitted = Admission.admit b.list_buffer ~now:arrive in
  let start = Int.max admitted (Resource.earliest_free b.mshrs) in
  mshr_alloc t b ~idx ~at:start;
  start

let sink_c_close t b ~idx ~start ~finish =
  mshr_free b ~idx ~at:finish;
  Attr.mark Attr.L2 ~at:finish;
  Resource.hold b.mshrs ~idx ~start ~finish;
  Admission.release b.list_buffer ~at:start;
  finish + t.p.Params.link_latency

(* Take a line carried by a channel-C message into the directory: the
   data-array write occupies a slice.  Returns when it is written. *)
let merge_line t b ~caddr ~dir ~data ~off ~now =
  let tb = slice_access t b ~caddr ~now in
  Ints.blit data off dir.Directory.data 0 (Array.length dir.Directory.data);
  dir.Directory.dirty <- true;
  tb

let release t ~core ~addr ~shrink ~data ~off ~now =
  let addr = line t addr in
  let b = bank_for t addr in
  let caddr = compress t addr in
  let arrive = now + t.p.Params.link_latency in
  l2_ev ~at:arrive ~addr L2_release;
  let idx = Resource.min_index b.mshrs in
  let start = sink_c_open t b ~idx ~arrive in
  let tm = start + t.p.Params.l2_tag_access in
  match Store.find b.store caddr with
  | id when id <> Store.miss ->
    let dir = b.lines.(id) in
    let tm =
      if Port.carries_data data then merge_line t b ~caddr ~dir ~data ~off ~now:tm else tm
    in
    Directory.set_owner dir core (Perm.shrink_to shrink);
    Store.touch b.store id ~now:tm;
    sink_c_close t b ~idx ~start ~finish:tm
  | _ ->
    (* Inclusion guarantees the line is present whenever a client can
       release it; reaching this is a coherence bug. *)
    invalid_arg (Printf.sprintf "Inclusive_cache.release: %#x not present" addr)

let root_release t ~core ~addr ~kind ~data ~off ~now =
  let addr = line t addr in
  let b = bank_for t addr in
  let caddr = compress t addr in
  incr_stat t b (fun c -> c.root_releases);
  let arrive = now + t.p.Params.link_latency in
  l2_ev ~at:arrive ~addr L2_root_release;
  let idx = Resource.min_index b.mshrs in
  let start = sink_c_open t b ~idx ~arrive in
  let tm = start + t.p.Params.l2_tag_access in
  let finish =
    match Store.find b.store caddr with
    | id when id <> Store.miss ->
      let dir = b.lines.(id) in
      (* The RootRelease doubles as the requester's own permission report:
         a flush implies it invalidated its copy, a clean keeps it. *)
      (match kind with
       | Message.Wb_flush -> Directory.set_owner dir core Perm.Nothing
       | Message.Wb_clean -> ());
      let tm =
        if Port.carries_data data then merge_line t b ~caddr ~dir ~data ~off ~now:tm else tm
      in
      let n_probe =
        match kind with
        | Message.Wb_flush -> Directory.owners_into dir Perm.Nothing ~exclude:core t.probe_buf
        | Message.Wb_clean -> foreign_trunk_into t dir ~core
      in
      let cap = match kind with Message.Wb_flush -> Perm.Nothing | Message.Wb_clean -> Perm.Branch in
      let tm = probe_all t b ~addr ~cap ~n:n_probe ~now:tm dir in
      let tm =
        if dir.Directory.dirty || not t.p.Params.l2_trivial_skip then begin
          incr_stat t b (fun c -> c.dram_writebacks);
          l2_ev ~at:tm ~addr L2_writeback;
          let tb = slice_access t b ~caddr ~now:tm in
          let td = Port.Memside.persist_line t.backend ~addr ~data:dir.Directory.data ~now:tb in
          dir.Directory.dirty <- false;
          td
        end
        else begin
          incr_stat t b (fun c -> c.trivial_skips);
          l2_ev ~at:tm ~addr L2_trivial_skip;
          (* The L2 copy is clean, but a dirty copy may sit in a
             memory-side cache below: it must be pushed for the ack to
             mean "persisted". *)
          Port.Memside.persist_if_dirty t.backend ~addr ~now:tm
        end
      in
      (match kind with
       | Message.Wb_flush -> Store.invalidate b.store id
       | Message.Wb_clean -> Store.touch b.store id ~now:tm);
      tm
    | _ ->
      (* Not present in L2: by inclusion no L1 holds it either, so there is
         nothing to write back above — but a memory-side cache may still
         hold it dirty, and data carried by the request is pushed
         straight through (defensive; cannot arise sequentially). *)
      if Port.carries_data data then begin
        incr_stat t b (fun c -> c.dram_writebacks);
        l2_ev ~at:tm ~addr L2_writeback;
        Port.Memside.persist_line t.backend ~addr ~data:(Array.sub data off (t.lb lsr 3)) ~now:tm
      end
      else begin
        incr_stat t b (fun c -> c.trivial_skips);
        l2_ev ~at:tm ~addr L2_trivial_skip;
        Port.Memside.persist_if_dirty t.backend ~addr ~now:tm
      end
  in
  sink_c_close t b ~idx ~start ~finish

let root_inval t ~core ~addr ~now =
  let addr = line t addr in
  let b = bank_for t addr in
  let caddr = compress t addr in
  incr_stat t b (fun c -> c.root_invals);
  let arrive = now + t.p.Params.link_latency in
  l2_ev ~at:arrive ~addr L2_root_inval;
  let idx = Resource.min_index b.mshrs in
  let start = sink_c_open t b ~idx ~arrive in
  let tm = start + t.p.Params.l2_tag_access in
  let finish =
    match Store.find b.store caddr with
    | id when id <> Store.miss ->
      let dir = b.lines.(id) in
      Directory.set_owner dir core Perm.Nothing;
      let n = Directory.owners_into dir Perm.Nothing ~exclude:core t.probe_buf in
      (* Probe and revoke; any dirty data handed back is discarded with
         the line (CBO.INVAL forfeits unwritten data by definition). *)
      let tm = probe_all t b ~addr ~cap:Perm.Nothing ~n ~now:tm dir in
      Store.invalidate b.store id;
      Port.Memside.discard_line t.backend ~addr;
      tm
    | _ ->
      Port.Memside.discard_line t.backend ~addr;
      tm
  in
  sink_c_close t b ~idx ~start ~finish

(* Cold lookup shared by the functional/audit read paths. *)
let find_slot t addr =
  let b = bank_for t addr in
  (b, Store.find b.store (compress t addr))

let dir_dirty t addr =
  match find_slot t (line t addr) with
  | b, id when id <> Store.miss -> (b.lines.(id)).Directory.dirty
  | _ -> false

let present t addr =
  let _, id = find_slot t (line t addr) in
  id <> Store.miss

let owner_perm t ~core ~addr =
  match find_slot t (line t addr) with
  | b, id when id <> Store.miss -> Directory.owner_perm (b.lines.(id)) core
  | _ -> Perm.Nothing

let peek_word t addr =
  match find_slot t (line t addr) with
  | b, id when id <> Store.miss ->
    b.lines.(id).Directory.data.(Geometry.offset_word t.p.Params.l2_geom addr)
  | _ -> Port.Memside.peek_word t.backend addr

let find_dir t addr =
  let a = line t addr in
  let b = bank_for t a in
  let id = Store.find b.store (compress t a) in
  if id = Store.miss then None else Some (b.lines.(id))

let iter_lines t f =
  Array.iter
    (fun b ->
      Store.iter_valid b.store (fun caddr id ->
        f (decompress t b caddr) (b.lines.(id))))
    t.banks

let list_buffer_occupants t =
  Array.fold_left (fun acc b -> acc + Admission.occupants b.list_buffer) 0 t.banks

let crash t =
  (* In-flight transactions die with the power: reset MSHR/slice occupancy
     and ListBuffer admissions in every bank so nothing leaks into the next
     run. *)
  Array.iter
    (fun b ->
      Store.invalidate_all b.store;
      Resource.reset b.mshrs;
      Resource.Banked.reset b.slices;
      Admission.reset b.list_buffer)
    t.banks;
  Port.Memside.crash t.backend

(* Bind this cache as the manager agent of [port] for client [core]: the
   client's A/C-channel requests arrive here, and our B-channel probes for
   that core leave through the same port. *)
let connect_client t ~core port =
  if core < 0 || core >= Array.length t.ports then
    invalid_arg (Printf.sprintf "Inclusive_cache.connect_client: core %d out of range" core);
  (match t.ports.(core) with
   | Some _ -> invalid_arg (Printf.sprintf "Inclusive_cache.connect_client: core %d already connected" core)
   | None -> ());
  t.ports.(core) <- Some port;
  Port.connect_manager port
    {
      Port.acquire =
        (fun ~addr ~grow ~now ~into ~off -> acquire t ~core ~addr ~grow ~now ~into ~off);
      release =
        (fun ~addr ~shrink ~data ~off ~now -> release t ~core ~addr ~shrink ~data ~off ~now);
      root_release =
        (fun ~addr ~kind ~data ~off ~now -> root_release t ~core ~addr ~kind ~data ~off ~now);
      root_inval = (fun ~addr ~now -> root_inval t ~core ~addr ~now);
      peek_word = (fun addr -> peek_word t addr);
    }

(* Every slot's storage is copied, an invalid slot's stale line included,
   so the copy is identical to its source slot for slot: [dst] makes
   storage where [src] has some and drops it where [src] has none. *)
let copy_lines ~src ~dst sb db =
  for id = 0 to Array.length sb.lines - 1 do
    let s = Array.unsafe_get sb.lines id and d = Array.unsafe_get db.lines id in
    if s == src.no_line then begin
      if d != dst.no_line then db.lines.(id) <- dst.no_line
    end
    else if d != dst.no_line then Directory.copy_into ~src:s ~dst:d
    else begin
      let d = make_line dst in
      Directory.copy_into ~src:s ~dst:d;
      db.lines.(id) <- d
    end
  done

(* The backend and the client ports are wiring; the system copies them. *)
let copy_into ~src ~dst =
  if dst.n_banks <> src.n_banks then invalid_arg "Inclusive_cache.copy_into: bank counts differ";
  for i = 0 to src.n_banks - 1 do
    let s = src.banks.(i) and d = dst.banks.(i) in
    Store.copy_into ~src:s.store ~dst:d.store;
    copy_lines ~src ~dst s d;
    Resource.copy_into ~src:s.mshrs ~dst:d.mshrs;
    Admission.copy_into ~src:s.list_buffer ~dst:d.list_buffer;
    Resource.Banked.copy_into ~src:s.slices ~dst:d.slices;
    Stats.Registry.copy_into ~src:s.b_stats ~dst:d.b_stats
  done;
  Ints.copy_into ~src:src.probe_buf ~dst:dst.probe_buf;
  Stats.Registry.copy_into ~src:src.stats ~dst:dst.stats
