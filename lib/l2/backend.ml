module Dram = Skipit_mem.Dram
open Skipit_tilelink

let of_dram ?(name = "dram") ~beats_per_line dram =
  Port.Memside.create ~name ~beats_per_line (fun waits ->
    {
      Port.Memside.read_line =
        (fun ~addr ~now ~into ->
          Port.Memside.note_wait waits (Dram.queue_wait dram ~now);
          Port.Reply.v ~at:(Dram.read_line dram ~addr ~now ~into) ~flag:false);
      write_line =
        (fun ~addr ~data ~now ->
          Port.Memside.note_wait waits (Dram.queue_wait dram ~now);
          Dram.write_line dram ~addr ~data ~now);
      persist_line =
        (fun ~addr ~data ~now ->
          Port.Memside.note_wait waits (Dram.queue_wait dram ~now);
          Dram.write_line dram ~addr ~data ~now);
      persist_if_dirty = (fun ~addr:_ ~now -> now);
      discard_line = (fun ~addr:_ -> ());
      peek_word = (fun addr -> Dram.peek_word dram addr);
      crash = (fun () -> ());
    })
