open Skipit_sim
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution
module Metrics = Skipit_obs.Metrics

type t = {
  backing : Backing.t;
  channels : Resource.t;
  read_latency : int;
  write_latency : int;
  occupancy : int;
  line_bytes : int;
  mutable reads : int;
  mutable writes : int;
  mutable log : Persist_log.t option;
}

let create ~channels ~read_latency ~write_latency ~occupancy ~line_bytes =
  {
    backing = Backing.create ();
    channels = Resource.create ~count:channels "dram";
    read_latency;
    write_latency;
    occupancy;
    line_bytes;
    reads = 0;
    writes = 0;
    log = None;
  }

(* How long a request arriving at [now] would queue for a free channel —
   deterministic lookahead for the memside port's stall accounting. *)
let queue_wait t ~now = Int.max 0 (Resource.earliest_free t.channels - now)

let read_line t ~addr ~now ~into =
  t.reads <- t.reads + 1;
  let start = Resource.acquire_start t.channels ~now ~busy:t.occupancy in
  if Trace.enabled () then Trace.emit ~at:start (Trace.Dram { op = Trace.Dram_read; addr });
  if Metrics.enabled () then Metrics.count "dram.reads" ~at:start;
  Attr.mark Attr.Dram ~at:(start + t.read_latency);
  Backing.read_line_into t.backing ~line_bytes:t.line_bytes addr into;
  start + t.read_latency

let write_line t ~addr ~data ~now =
  t.writes <- t.writes + 1;
  let start = Resource.acquire_start t.channels ~now ~busy:t.occupancy in
  if Trace.enabled () then Trace.emit ~at:start (Trace.Dram { op = Trace.Dram_write; addr });
  if Metrics.enabled () then Metrics.count "dram.writes" ~at:start;
  Backing.write_line t.backing ~line_bytes:t.line_bytes addr data;
  let durable_at = start + t.write_latency in
  Attr.mark Attr.Dram ~at:durable_at;
  (match t.log with
   | Some log -> Persist_log.record log ~addr ~time:durable_at
   | None -> ());
  durable_at

let peek_word t addr = Backing.read_word t.backing addr
let poke_word t addr v = Backing.write_word t.backing addr v
let peek_line t ~addr = Backing.read_line t.backing ~line_bytes:t.line_bytes addr
let snapshot t = Backing.copy t.backing
let reads t = t.reads
let writes t = t.writes

let channels t = t.channels

(* Power failure: contents survive (this IS the persistence domain), but
   channel occupancy from in-flight transactions does not.  Counters and
   the persist log are history, not state — they are kept. *)
let crash t = Resource.reset t.channels

let attach_log t log = t.log <- Some log

(* The attached log is the system's to copy. *)
let copy_into ~src ~dst =
  Backing.copy_into ~src:src.backing ~dst:dst.backing;
  Resource.copy_into ~src:src.channels ~dst:dst.channels;
  dst.reads <- src.reads;
  dst.writes <- src.writes
