(** Text-format instruction traces.

    A trace is a tiny assembly-like program, one instruction per line,
    organised in per-core sections — enough to script any experiment against
    the simulator without writing OCaml:

    {v
    # producer/consumer over one line
    core 0
      sd 0x1000 42
      cbo.clean 0x1000
      fence
    core 1
      delay 200
      ld 0x1000
    v}

    Instructions: [ld A], [sd A V], [cas A EXPECTED DESIRED],
    [cbo.clean A], [cbo.flush A], [cbo.inval A], [cbo.zero A], [fence],
    [delay N].  Addresses and values accept decimal or [0x] hex; addresses,
    core ids and delays are never negative.  [#] starts a comment.

    Repetition: [repeat N] ... [end] blocks may nest, and are unrolled at
    parse time (to at most 2{^20} instructions).  [repeat N step S] adds
    [k * S] to every address in its body on iteration [k] (from 0); nested
    steps add up, and a plain [repeat N] is [step 0].  A step that drives an
    address below zero is an error.  Eight lines, one store and two flushes
    each:

    {v
    core 0
      repeat 8 step 64
        sd 0x10000 1
        cbo.flush 0x10000
        cbo.flush 0x10000
      end
      fence
    v} *)

module Instr = Skipit_cpu.Instr

type t = (int * Instr.t list) list
(** Per-core instruction streams, core ids ascending. *)

val parse : string -> (t, string) result
(** Parse a whole program from source text; errors carry line numbers.
    Never raises. *)

val load_file : string -> (t, string) result

val max_core : t -> int

val run : Skipit_core.System.t -> t -> int * int array
(** Execute every stream as a simulated thread; returns the final cycle and
    each core's loaded-value xor-checksum (a cheap way for trace authors to
    assert on data flow). *)

val pp : Format.formatter -> t -> unit
(** Print a parseable rendering of the program. *)
