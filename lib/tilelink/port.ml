open Skipit_sim
module Trace = Skipit_obs.Trace

(* A completion time and one flag in one immediate int: bit 0 is the
   flag, the rest the time. *)
module Reply = struct
  type t = int

  let v ~at ~flag = (at lsl 1) lor Bool.to_int flag
  let at r = r asr 1
  let flag r = r land 1 = 1
end

let no_data = [||]
let carries_data data = Array.length data > 0

type manager = {
  acquire : addr:int -> grow:Perm.grow -> now:int -> into:int array -> off:int -> Reply.t;
  release : addr:int -> shrink:Perm.shrink -> data:int array -> off:int -> now:int -> int;
  root_release :
    addr:int -> kind:Message.wb_kind -> data:int array -> off:int -> now:int -> int;
  root_inval : addr:int -> now:int -> int;
  peek_word : int -> int;
}

type client = {
  probe : addr:int -> cap:Perm.t -> now:int -> into:int array -> off:int -> Reply.t;
}

module Channels = struct
  type t = { a : Resource.t; c : Resource.t; d : Resource.t }

  let create ~name =
    {
      a = Resource.create (name ^ "-a");
      c = Resource.create (name ^ "-c");
      d = Resource.create (name ^ "-d");
    }

  let copy_into ~src ~dst =
    Resource.copy_into ~src:src.a ~dst:dst.a;
    Resource.copy_into ~src:src.c ~dst:dst.c;
    Resource.copy_into ~src:src.d ~dst:dst.d
end

(* Per-channel counters, bound on first bump: a port that sees no stalls
   reports no [*_stalls] key. *)
type chan_stats = {
  tchan : Trace.chan;
  beats : Stats.Registry.handle;
  stalls : Stats.Registry.handle;
  waits : Stats.Registry.handle;
}

let chan_stats stats chan tchan =
  let h suffix = Stats.Registry.handle stats (chan ^ suffix) in
  { tchan; beats = h "_beats"; stalls = h "_stalls"; waits = h "_wait_cycles" }

type t = {
  name : string;
  channels : Channels.t;
  bank_channels : Channels.t array;  (* [||] = unbanked wiring *)
  bank_shift : int;  (* log2 (Array.length bank_channels) *)
  line_bytes : int;
  stats : Stats.Registry.t;
  cs_a : chan_stats;
  cs_c : chan_stats;
  cs_d : chan_stats;
  probes : Stats.Registry.handle;
  probe_beats : Stats.Registry.handle;
  acquires : Stats.Registry.handle;
  releases : Stats.Registry.handle;
  root_releases : Stats.Registry.handle;
  root_invals : Stats.Registry.handle;
  mutable manager : manager option;
  mutable client : client option;
}

let create ?channels ?(bank_channels = [||]) ?(line_bytes = 64) ~name () =
  let channels =
    match channels with Some c -> c | None -> Channels.create ~name
  in
  let stats = Stats.Registry.create () in
  let h = Stats.Registry.handle stats in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  {
    name;
    channels;
    bank_channels;
    bank_shift = log2 (Array.length bank_channels);
    line_bytes;
    stats;
    cs_a = chan_stats stats "a" Trace.Ch_a;
    cs_c = chan_stats stats "c" Trace.Ch_c;
    cs_d = chan_stats stats "d" Trace.Ch_d;
    probes = h "b_probes";
    probe_beats = h "b_beats";
    acquires = h "acquires";
    releases = h "releases";
    root_releases = h "root_releases";
    root_invals = h "root_invals";
    manager = None;
    client = None;
  }

let name t = t.name
let stats t = t.stats

let bank_fold ~shift ~mask line =
  let h = ref 0 and x = ref line in
  while !x <> 0 do
    h := !h lxor (!x land mask);
    x := !x lsr shift
  done;
  !h

(* Banked wiring routes each message to the wire set of the LLC bank that
   owns the line — the bank hash the banked L2 uses, so bus [i] carries
   exactly bank [i]'s traffic; unbanked ports ignore [addr]. *)
let chans_for t ~addr =
  match Array.length t.bank_channels with
  | 0 -> t.channels
  | 1 -> t.bank_channels.(0)
  | n ->
    t.bank_channels.(bank_fold ~shift:t.bank_shift ~mask:(n - 1) (addr / t.line_bytes))

(* Wires shared with other ports are copied once per port that shares
   them: the copies agree, so that is only repeated work. *)
let copy_into ~src ~dst =
  Channels.copy_into ~src:src.channels ~dst:dst.channels;
  Array.iter2
    (fun src dst -> Channels.copy_into ~src ~dst)
    src.bank_channels dst.bank_channels;
  Stats.Registry.copy_into ~src:src.stats ~dst:dst.stats

let connect_manager t m =
  if t.manager <> None then invalid_arg ("Port." ^ t.name ^ ": manager already connected");
  t.manager <- Some m

let connect_client t c =
  if t.client <> None then invalid_arg ("Port." ^ t.name ^ ": client already connected");
  t.client <- Some c

let manager_exn t =
  match t.manager with
  | Some m -> m
  | None -> invalid_arg ("Port." ^ t.name ^ ": no manager connected")

let client_exn t =
  match t.client with
  | Some c -> c
  | None -> invalid_arg ("Port." ^ t.name ^ ": no client connected")

(* Occupy one channel's wires for [beats] cycles starting no earlier than
   [now]; a sender that finds the channel busy queues (stall), exactly how
   structural hazards surface in hardware. *)
let occupy t res cs ~now ~beats =
  let finish = Resource.acquire_finish res ~now ~busy:beats in
  let start = finish - beats in
  Stats.Registry.bump_by cs.beats beats;
  if Trace.enabled () then
    Trace.emit ~at:start
      (Trace.Channel { port = t.name; chan = cs.tchan; op = Trace.Beats beats });
  if start > now then begin
    Stats.Registry.bump cs.stalls;
    Stats.Registry.bump_by cs.waits (start - now);
    if Trace.enabled () then
      Trace.emit ~at:now
        (Trace.Channel { port = t.name; chan = cs.tchan; op = Trace.Stall (start - now) })
  end;
  finish

let send_a t ~addr ~now =
  occupy t (chans_for t ~addr).Channels.a t.cs_a ~now ~beats:1

let send_c t ~addr ~finish ~beats =
  occupy t (chans_for t ~addr).Channels.c t.cs_c ~now:(finish - beats) ~beats

let recv_d t ~addr ~finish ~beats =
  occupy t (chans_for t ~addr).Channels.d t.cs_d ~now:(finish - beats) ~beats

let[@inline] trace_msg t ~op ~addr ~now =
  if Trace.enabled () then Trace.emit ~at:now (Trace.Message { port = t.name; op; addr })

let acquire t ~addr ~grow ~now ~into ~off =
  Stats.Registry.bump t.acquires;
  trace_msg t ~op:Trace.Msg_acquire ~addr ~now;
  (manager_exn t).acquire ~addr ~grow ~now ~into ~off

let release t ~addr ~shrink ~data ~off ~now =
  Stats.Registry.bump t.releases;
  trace_msg t ~op:Trace.Msg_release ~addr ~now;
  (manager_exn t).release ~addr ~shrink ~data ~off ~now

let root_release t ~addr ~kind ~data ~off ~now =
  Stats.Registry.bump t.root_releases;
  trace_msg t ~op:Trace.Msg_root_release ~addr ~now;
  (manager_exn t).root_release ~addr ~kind ~data ~off ~now

let root_inval t ~addr ~now =
  Stats.Registry.bump t.root_invals;
  trace_msg t ~op:Trace.Msg_root_inval ~addr ~now;
  (manager_exn t).root_inval ~addr ~now

let peek_word t addr = (manager_exn t).peek_word addr

let probe t ~addr ~cap ~now ~into ~off =
  Stats.Registry.bump t.probes;
  Stats.Registry.bump t.probe_beats;
  if Trace.enabled () then begin
    Trace.emit ~at:now (Trace.Message { port = t.name; op = Trace.Msg_probe; addr });
    Trace.emit ~at:now (Trace.Channel { port = t.name; chan = Trace.Ch_b; op = Trace.Beats 1 })
  end;
  (client_exn t).probe ~addr ~cap ~now ~into ~off

module Memside = struct
  type ops = {
    read_line : addr:int -> now:int -> into:int array -> Reply.t;
    write_line : addr:int -> data:int array -> now:int -> int;
    persist_line : addr:int -> data:int array -> now:int -> int;
    persist_if_dirty : addr:int -> now:int -> int;
    discard_line : addr:int -> unit;
    peek_word : int -> int;
    crash : unit -> unit;
  }

  (* The agent's own queueing report, bound to the port's registry. *)
  type waits = { stalls : Stats.Registry.handle; wait_cycles : Stats.Registry.handle }

  type t = {
    name : string;
    beats_per_line : int;
    stats : Stats.Registry.t;
    ops : ops;
    reads : Stats.Registry.handle;
    read_beats : Stats.Registry.handle;
    writes : Stats.Registry.handle;
    write_beats : Stats.Registry.handle;
    persists : Stats.Registry.handle;
    persist_checks : Stats.Registry.handle;
  }

  let create ~name ~beats_per_line mk =
    let stats = Stats.Registry.create () in
    let h = Stats.Registry.handle stats in
    {
      name;
      beats_per_line;
      stats;
      ops = mk { stalls = h "stalls"; wait_cycles = h "wait_cycles" };
      reads = h "reads";
      read_beats = h "read_beats";
      writes = h "writes";
      write_beats = h "write_beats";
      persists = h "persists";
      persist_checks = h "persist_checks";
    }

  let name t = t.name
  let stats t = t.stats

  let note_wait w cycles =
    if cycles > 0 then begin
      Stats.Registry.bump w.stalls;
      Stats.Registry.bump_by w.wait_cycles cycles
    end

  let[@inline] trace_op t ~op ~addr ~now =
    if Trace.enabled () then Trace.emit ~at:now (Trace.Mem { name = t.name; op; addr })

  let read_line t ~addr ~now ~into =
    Stats.Registry.bump t.reads;
    Stats.Registry.bump_by t.read_beats t.beats_per_line;
    trace_op t ~op:Trace.Mem_read ~addr ~now;
    t.ops.read_line ~addr ~now ~into

  let write_line t ~addr ~data ~now =
    Stats.Registry.bump t.writes;
    Stats.Registry.bump_by t.write_beats t.beats_per_line;
    trace_op t ~op:Trace.Mem_write ~addr ~now;
    t.ops.write_line ~addr ~data ~now

  let persist_line t ~addr ~data ~now =
    Stats.Registry.bump t.persists;
    Stats.Registry.bump_by t.write_beats t.beats_per_line;
    trace_op t ~op:Trace.Mem_persist ~addr ~now;
    t.ops.persist_line ~addr ~data ~now

  let persist_if_dirty t ~addr ~now =
    Stats.Registry.bump t.persist_checks;
    t.ops.persist_if_dirty ~addr ~now

  let discard_line t ~addr = t.ops.discard_line ~addr
  let peek_word t addr = t.ops.peek_word addr

  let crash t = t.ops.crash ()
  let copy_into ~src ~dst = Stats.Registry.copy_into ~src:src.stats ~dst:dst.stats
end
