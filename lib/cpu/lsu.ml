module Dcache = Skipit_l1.Dcache
module Flush_unit = Skipit_l1.Flush_unit
module Params = Skipit_cache.Params
module Attr = Skipit_obs.Attribution
open Skipit_tilelink

type t = {
  dcache : Dcache.t;
  stq : Store_queue.t;
  async_stores : bool;
  store_commit_cost : int;
  mutable clock : int;
  mutable instructions : int;
}

let create dcache =
  let p = Dcache.params dcache in
  {
    dcache;
    stq = Store_queue.create ~entries:p.Params.stq_entries;
    async_stores = p.Params.async_stores;
    store_commit_cost = p.Params.l1_store_commit;
    clock = 0;
    instructions = 0;
  }
let core t = Dcache.core t.dcache
let clock t = t.clock

let advance_to t cycle = if cycle > t.clock then t.clock <- cycle

let retire t = t.instructions <- t.instructions + 1

let load t addr =
  retire t;
  let value = Dcache.load_word t.dcache ~addr ~now:t.clock in
  t.clock <- Dcache.done_at t.dcache;
  value

let store t addr value =
  retire t;
  if t.async_stores then begin
    (* §3.2: the store retires once the STQ holds it; it drains in the
       background and only fences (or a full STQ) expose its latency —
       so the drain's future-dated hierarchy marks are shielded from the
       attribution cursor and the visible STQ-commit cost is charged to
       the L1 stage instead. *)
    let saved = Attr.suspend () in
    let drain_at = Dcache.store t.dcache ~addr ~value ~now:t.clock in
    Attr.restore saved;
    let commit = Store_queue.insert t.stq ~now:t.clock ~drain_at in
    t.clock <- commit + t.store_commit_cost;
    Attr.activate ~core:(Dcache.core t.dcache);
    Attr.mark Attr.L1_hit ~at:t.clock
  end
  else t.clock <- Dcache.store t.dcache ~addr ~value ~now:t.clock

let cas t addr ~expected ~desired =
  retire t;
  let ok = Dcache.cas_word t.dcache ~addr ~expected ~desired ~now:t.clock in
  t.clock <- Dcache.done_at t.dcache;
  ok

let exec t instr =
  match instr with
  | Instr.Load { addr } -> load t addr
  | Instr.Store { addr; value } ->
    store t addr value;
    0
  | Instr.Cas { addr; expected; desired } -> Bool.to_int (cas t addr ~expected ~desired)
  | Instr.Cbo_clean { addr } ->
    retire t;
    t.clock <- Dcache.cbo t.dcache ~addr ~kind:Message.Wb_clean ~now:t.clock;
    0
  | Instr.Cbo_flush { addr } ->
    retire t;
    t.clock <- Dcache.cbo t.dcache ~addr ~kind:Message.Wb_flush ~now:t.clock;
    0
  | Instr.Cbo_inval { addr } ->
    retire t;
    t.clock <- Dcache.cbo_inval t.dcache ~addr ~now:t.clock;
    0
  | Instr.Cbo_zero { addr } ->
    retire t;
    t.clock <- Dcache.cbo_zero t.dcache ~addr ~now:t.clock;
    0
  | Instr.Fence ->
    retire t;
    let flushes_done = Dcache.fence t.dcache ~now:t.clock in
    let stores_done = Store_queue.drained_at t.stq ~now:t.clock in
    t.clock <- Int.max flushes_done stores_done;
    Attr.mark Attr.Fence ~at:t.clock;
    0
  | Instr.Delay n ->
    retire t;
    if n < 0 then invalid_arg "Lsu.exec: negative delay";
    t.clock <- t.clock + n;
    0

let instructions t = t.instructions

let pending_writebacks t =
  Flush_unit.outstanding (Dcache.flush_unit t.dcache) ~now:t.clock

let pending_stores t = Store_queue.occupancy t.stq ~now:t.clock

(* The data cache is the system's to copy, like every other component the
   LSU only points at. *)
let copy_into ~src ~dst =
  Store_queue.copy_into ~src:src.stq ~dst:dst.stq;
  dst.clock <- src.clock;
  dst.instructions <- src.instructions
