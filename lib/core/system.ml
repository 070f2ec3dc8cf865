module Params = Skipit_cache.Params
module Instr = Skipit_cpu.Instr
module Lsu = Skipit_cpu.Lsu
module Dcache = Skipit_l1.Dcache
module Flush_unit = Skipit_l1.Flush_unit
module L2 = Skipit_l2.Inclusive_cache
module Dram = Skipit_mem.Dram
module Allocator = Skipit_mem.Allocator
open Skipit_tilelink

module Memside = Skipit_l2.Memside_cache

(* Periodic audit hook (off by default): [hook] fires whenever the maximum
   core clock has advanced at least [every] simulated cycles since the last
   firing.  The hook is untimed — it must only observe, never execute
   instructions — so enabling it cannot perturb cycle counts. *)
type audit_state = {
  every : int;
  mutable next_due : int;
  mutable in_hook : bool;
  hook : unit -> unit;
}

type t = {
  params : Params.t;
  dcaches : Dcache.t array;
  lsus : Lsu.t array;
  ports : Port.t array;  (* client port per core, L1 side <-> L2 side *)
  memside_ports : Port.Memside.t list;  (* every boundary below the L2 *)
  l2 : L2.t;
  l3 : Memside.t option;
  dram : Dram.t;
  allocator : Allocator.t;
  persist_log : Skipit_mem.Persist_log.t;
  mutable audit : audit_state option;
}

let create params =
  (match Params.validate params with
   | Ok () -> ()
   | Error msg -> invalid_arg ("System.create: " ^ msg));
  let dram =
    Dram.create ~channels:params.Params.dram_channels
      ~read_latency:params.Params.dram_read_latency
      ~write_latency:params.Params.dram_write_latency
      ~occupancy:params.Params.dram_occupancy ~line_bytes:(Params.line_bytes params)
  in
  let beats = Params.data_beats params in
  (* Memory side of the L2: either DRAM directly behind one counted port, or
     an L3 whose own downstream port fronts DRAM — every boundary counted. *)
  let l3, backend, memside_ports =
    match params.Params.l3 with
    | Some cfg ->
      let dram_port =
        Skipit_l2.Backend.of_dram ~name:"l3.dram" ~beats_per_line:beats dram
      in
      let m =
        Memside.create ~name:"l2.l3" ~geom:cfg.Params.l3_geom
          ~access_latency:cfg.Params.l3_latency ~banks:cfg.Params.l3_banks
          ~bank_busy:cfg.Params.l3_bank_busy ~below:dram_port ~beats_per_line:beats ()
      in
      let b = Memside.backend m in
      Some m, b, [ b; dram_port ]
    | None ->
      let b =
        Skipit_l2.Backend.of_dram ~name:"l2.mem" ~beats_per_line:beats dram
      in
      None, b, [ b ]
  in
  let l2 = L2.create params ~backend in
  (* Client-side topology: a crossbar gives each L1<->L2 port private channel
     wires; a shared bus threads one wire set through every port; a banked
     bus gives each NUCA bank one wire set that every client contends for
     (messages route by line address, matching the L2's interleave). *)
  let line_bytes = Params.line_bytes params in
  let ports =
    match params.Params.topology with
    | `Crossbar ->
      Array.init params.Params.n_cores (fun core ->
        Port.create ~name:(Printf.sprintf "l1.%d" core) ())
    | `Shared_bus ->
      let channels = Port.Channels.create ~name:"bus" in
      Array.init params.Params.n_cores (fun core ->
        Port.create ~channels ~name:(Printf.sprintf "l1.%d" core) ())
    | `Banked_bus ->
      let bank_channels =
        Array.init params.Params.l2_banks (fun i ->
          Port.Channels.create ~name:(Printf.sprintf "bus.b%d" i))
      in
      Array.init params.Params.n_cores (fun core ->
        Port.create ~bank_channels ~line_bytes ~name:(Printf.sprintf "l1.%d" core) ())
  in
  Array.iteri (fun core port -> L2.connect_client l2 ~core port) ports;
  let dcaches =
    Array.init params.Params.n_cores (fun core ->
      Dcache.create params ~core ~port:ports.(core))
  in
  let lsus = Array.map Lsu.create dcaches in
  let persist_log = Skipit_mem.Persist_log.create () in
  Dram.attach_log dram persist_log;
  {
    params;
    dcaches;
    lsus;
    ports;
    memside_ports;
    l2;
    l3;
    dram;
    allocator = Allocator.create ();
    persist_log;
    audit = None;
  }

let params t = t.params
let n_cores t = t.params.Params.n_cores
let lsu t core = t.lsus.(core)
let dcache t core = t.dcaches.(core)
let l2 t = t.l2
let l3 t = t.l3
let dram t = t.dram
let persist_log t = t.persist_log
let allocator t = t.allocator

(* Runs on every dispatch while an audit hook is attached: an int loop,
   not a fold with the polymorphic [max]. *)
let max_clock t =
  let m = ref 0 in
  for core = 0 to Array.length t.lsus - 1 do
    m := Int.max !m (Lsu.clock (Array.unsafe_get t.lsus core))
  done;
  !m

let set_audit_hook t ~every hook =
  if every <= 0 then invalid_arg "System.set_audit_hook: every must be positive";
  t.audit <- Some { every; next_due = max_clock t + every; in_hook = false; hook = (fun () -> hook t) }

let maybe_audit t =
  match t.audit with
  | None -> ()
  | Some a ->
    let now = max_clock t in
    if now >= a.next_due && not a.in_hook then begin
      a.in_hook <- true;
      (* Catch up in one firing even if the clock jumped several periods. *)
      a.next_due <- now + a.every;
      Fun.protect ~finally:(fun () -> a.in_hook <- false) a.hook
    end

let exec t ~core instr =
  let r = Lsu.exec t.lsus.(core) instr in
  maybe_audit t;
  r

let load t ~core addr = exec t ~core (Instr.Load { addr })
let store t ~core addr value = ignore (exec t ~core (Instr.Store { addr; value }))

let cas t ~core addr ~expected ~desired =
  exec t ~core (Instr.Cas { addr; expected; desired }) = 1

let clean t ~core addr = ignore (exec t ~core (Instr.Cbo_clean { addr }))
let flush t ~core addr = ignore (exec t ~core (Instr.Cbo_flush { addr }))
let inval t ~core addr = ignore (exec t ~core (Instr.Cbo_inval { addr }))
let zero t ~core addr = ignore (exec t ~core (Instr.Cbo_zero { addr }))
let fence t ~core = ignore (exec t ~core Instr.Fence)
let clock t ~core = Lsu.clock t.lsus.(core)

(* At most one core holds the line dirty; its copy is the architectural
   value.  Otherwise every cached copy agrees with the L2. *)
let rec peek_from t addr core =
  if core >= Array.length t.dcaches then L2.peek_word t.l2 addr
  else begin
    let dc = t.dcaches.(core) in
    let id = Dcache.find_slot dc addr in
    if id >= 0 && Dcache.slot_dirty dc id then Dcache.peek_word dc addr
    else peek_from t addr (core + 1)
  end

let peek_word t addr = peek_from t addr 0

let poke_word t addr value = Dram.poke_word t.dram addr value
let persisted_word t addr = Dram.peek_word t.dram addr

(* Every component is copied once, here: the wiring between them (ports,
   memside ports, the DRAM's log) belongs to the system, not to either
   end.  The audit hook is [dst]'s own; only its schedule is copied. *)
let copy_into ~src ~dst =
  Array.iter2 (fun src dst -> Dcache.copy_into ~src ~dst) src.dcaches dst.dcaches;
  Array.iter2 (fun src dst -> Lsu.copy_into ~src ~dst) src.lsus dst.lsus;
  Array.iter2 (fun src dst -> Port.copy_into ~src ~dst) src.ports dst.ports;
  List.iter2
    (fun src dst -> Port.Memside.copy_into ~src ~dst)
    src.memside_ports dst.memside_ports;
  L2.copy_into ~src:src.l2 ~dst:dst.l2;
  (match src.l3, dst.l3 with
   | Some src, Some dst -> Memside.copy_into ~src ~dst
   | None, None -> ()
   | (Some _ | None), _ -> assert false (* equal parameters *));
  Dram.copy_into ~src:src.dram ~dst:dst.dram;
  Allocator.copy_into ~src:src.allocator ~dst:dst.allocator;
  Skipit_mem.Persist_log.copy_into ~src:src.persist_log ~dst:dst.persist_log;
  match src.audit, dst.audit with
  | None, _ -> dst.audit <- None
  | Some a, Some b ->
    if b.every <> a.every then invalid_arg "System.copy_into: audit periods differ";
    b.next_due <- a.next_due;
    b.in_hook <- a.in_hook
  | Some _, None -> invalid_arg "System.copy_into: no audit hook to copy into"

let crash t =
  Array.iter Dcache.crash t.dcaches;
  L2.crash t.l2;
  Dram.crash t.dram

(* Declare every component's trace track up front so the exported timeline
   shows the full topology even for components that stay silent. *)
let emit_trace_meta t =
  let module Trace = Skipit_obs.Trace in
  if Trace.enabled () then begin
    let meta track note = Trace.emit ~at:0 (Trace.Meta { track; note }) in
    Array.iteri
      (fun i _ ->
        meta (Printf.sprintf "l1.%d" i) "L1 data cache";
        meta (Printf.sprintf "l1.%d.mshr" i) "L1 MSHRs";
        meta (Printf.sprintf "fu.%d.q" i) "flush queue")
      t.dcaches;
    Array.iter (fun p -> meta ("port." ^ Port.name p) "TileLink client port") t.ports;
    List.iter
      (fun b -> meta ("port." ^ Port.Memside.name b) "memside port")
      t.memside_ports;
    meta "l2" "shared inclusive L2";
    if L2.n_banks t.l2 = 1 then meta "l2.mshr" "L2 MSHRs"
    else
      for i = 0 to L2.n_banks t.l2 - 1 do
        meta (Printf.sprintf "l2.bank.%d.mshr" i) (Printf.sprintf "L2 bank %d MSHRs" i)
      done;
    (match t.l3 with Some _ -> meta "l2.l3" "memory-side L3" | None -> ());
    meta "dram" "DRAM (persistence domain)"
  end

let stats_report t =
  let acc = ref [] in
  let push prefix reg =
    List.iter
      (fun (name, v) -> acc := (prefix ^ "." ^ name, v) :: !acc)
      (Skipit_sim.Stats.Registry.to_list reg)
  in
  Array.iteri (fun i dc -> push (Printf.sprintf "l1.%d" i) (Dcache.stats dc)) t.dcaches;
  Array.iteri
    (fun i dc -> push (Printf.sprintf "fu.%d" i) (Flush_unit.stats (Dcache.flush_unit dc)))
    t.dcaches;
  push "l2" (L2.stats t.l2);
  if L2.n_banks t.l2 > 1 then
    Array.iteri
      (fun i reg -> push (Printf.sprintf "l2.bank.%d" i) reg)
      (L2.bank_stats t.l2);
  (match t.l3 with Some m -> push "l3" (Memside.stats m) | None -> ());
  (* Per-port beat/stall/occupancy counters at every hierarchy boundary. *)
  Array.iter (fun p -> push ("port." ^ Port.name p) (Port.stats p)) t.ports;
  List.iter
    (fun b -> push ("port." ^ Port.Memside.name b) (Port.Memside.stats b))
    t.memside_ports;
  acc := ("dram.reads", Dram.reads t.dram) :: ("dram.writes", Dram.writes t.dram) :: !acc;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc
