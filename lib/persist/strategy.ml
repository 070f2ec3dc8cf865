module Thread = Skipit_core.Thread

type t = {
  name : string;
  field_stride : int;
  read : int -> int;
  write : int -> int -> unit;
  cas : int -> expected:int -> desired:int -> bool;
  persist_store : int -> unit;
  persist_load : int -> unit;
  fence : unit -> unit;
  persistent : bool;
  deferrable : bool;
}

let plain () =
  {
    name = "plain";
    field_stride = 8;
    read = Thread.load;
    write = Thread.store;
    cas = Thread.cas;
    persist_store = Thread.flush;
    persist_load = Thread.flush;
    fence = Thread.fence;
    persistent = true;
    deferrable = true;
  }

let none () =
  {
    name = "none";
    field_stride = 8;
    read = Thread.load;
    write = Thread.store;
    cas = Thread.cas;
    persist_store = (fun _ -> ());
    persist_load = (fun _ -> ());
    fence = (fun () -> ());
    persistent = false;
    deferrable = true;
  }

let skipit_hw () =
  (* No software support whatsoever: issue the writeback unconditionally and
     let the skip bit in the L1 metadata drop the redundant ones (§6). *)
  { (plain ()) with name = "skipit" }

(* FliT [73]: a per-word flush counter.  An instrumented store raises the
   counter (the paper uses fetch&add; we model it as load+store, which is
   what it costs on the simulated core) before writing; the store-side
   persist point flushes and lowers it.  A load-side persist point flushes
   only when the counter is non-zero — the redundant-writeback avoidance
   this mechanism exists for. *)
module Flit = struct
  let make ~name ~field_stride ~counter_of =
    let bump addr delta =
      let c = counter_of addr in
      Thread.store c (Thread.load c + delta)
    in
    let write addr value =
      bump addr 1;
      Thread.store addr value
    in
    let cas addr ~expected ~desired =
      bump addr 1;
      let ok = Thread.cas addr ~expected ~desired in
      if not ok then bump addr (-1);
      ok
    in
    let persist_store addr =
      Thread.flush addr;
      bump addr (-1)
    in
    let persist_load addr = if Thread.load (counter_of addr) > 0 then Thread.flush addr in
    {
      name;
      field_stride;
      read = Thread.load;
      write;
      cas;
      persist_store;
      persist_load;
      fence = Thread.fence;
      persistent = true;
      (* The counter bookkeeping lives inside the persist point: postponing
         it would leave counters raised across an epoch and break the
         load-side avoidance test. *)
      deferrable = false;
    }
end

let flit_adjacent () =
  (* Counter in the word immediately after the variable: same cache line,
     double the footprint. *)
  Flit.make ~name:"flit-adjacent" ~field_stride:16 ~counter_of:(fun addr -> addr + 8)

let flit_hash ~table_base ~table_slots =
  if table_slots <= 0 then invalid_arg "Strategy.flit_hash: empty table";
  (* Fibonacci hashing of the word address into the counter table. *)
  let counter_of addr =
    let h = addr * 0x9E3779B97F4A7C1 in
    let slot = (h lsr 17) land max_int mod table_slots in
    table_base + (slot * 8)
  in
  Flit.make
    ~name:(Printf.sprintf "flit-hash[%d]" table_slots)
    ~field_stride:8 ~counter_of

(* Link-and-Persist [23]: bit 62 inside the data word marks "written but not
   yet persisted".  Stores set it; any persist point that finds it set
   flushes the line and clears the mark with a CAS.  Loads mask it out. *)
let lap_mask = 1 lsl 62
let lap_strip v = v land lnot lap_mask

let link_and_persist () =
  let read addr = lap_strip (Thread.load addr) in
  let write addr value = Thread.store addr (value lor lap_mask) in
  let cas addr ~expected ~desired =
    (* The stored word may carry the mark in either state; try both
       encodings of the expected value, marked first (recent writes). *)
    Thread.cas addr ~expected:(expected lor lap_mask) ~desired:(desired lor lap_mask)
    || Thread.cas addr ~expected ~desired:(desired lor lap_mask)
  in
  let persist addr =
    let v = Thread.load addr in
    if v land lap_mask <> 0 then begin
      Thread.flush addr;
      (* Clear the mark; losing the CAS race only costs an extra flush
         later, never a missed writeback. *)
      ignore (Thread.cas addr ~expected:v ~desired:(lap_strip v))
    end
  in
  {
    name = "link-and-persist";
    field_stride = 8;
    read;
    write;
    cas;
    persist_store = persist;
    persist_load = persist;
    fence = Thread.fence;
    persistent = true;
    (* The persist point clears the in-word mark; deferring it would leave
       marks set for readers across the whole epoch. *)
    deferrable = false;
  }
