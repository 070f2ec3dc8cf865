(** Timed DRAM model and persistence domain.

    Wraps a {!Backing} store with a channel-occupancy latency model (the
    FASED stand-in).  In the simulated machine the DRAM {e is} the
    persistence domain (§2.5): a value is persisted exactly when a line-sized
    write lands here.  Crash simulation therefore consists of discarding all
    cache state and reading whatever this module holds. *)

type t

val create :
  channels:int ->
  read_latency:int ->
  write_latency:int ->
  occupancy:int ->
  line_bytes:int ->
  t

val line_bytes : t -> int

val queue_wait : t -> now:int -> int
(** How long a request arriving at [now] would wait for a free channel (0
    when one is idle) — lookahead for port-level stall accounting; does not
    acquire anything. *)

val read_line : t -> addr:int -> now:int -> into:int array -> int
(** [read_line t ~addr ~now ~into] reads the line into the first
    [line_bytes/8] words of [into] and returns the cycle at which the data
    is available to the requester side of the memory controller.  It
    allocates nothing. *)

val write_line : t -> addr:int -> data:int array -> now:int -> int
(** Returns the cycle at which the write is durable (acknowledged). *)

val peek_word : t -> int -> int
(** Untimed read of the persisted image — for tests and crash recovery. *)

val poke_word : t -> int -> int -> unit
(** Untimed write — for initialising test fixtures. *)

val peek_line : t -> addr:int -> int array

val snapshot : t -> Backing.t
(** Copy of the current persisted image. *)

val backing : t -> Backing.t
(** The live backing store (shared, not a copy). *)

val reads : t -> int
val writes : t -> int
(** Access counters for utilisation accounting. *)

val reset_timing : t -> unit
(** Clear channel occupancy and counters, keep contents. *)

val channels : t -> Skipit_sim.Resource.t
(** Channel occupancy tracker (audit/conservation checks). *)

val crash : t -> unit
(** Power failure: contents and counters survive (NVMM), in-flight channel
    occupancy is dropped. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst]'s contents, channel occupancy and counters equal to
    [src]'s.  The attached log is not copied ({!Persist_log.copy_into}
    does that). *)

val attach_log : t -> Persist_log.t -> unit
(** Record every durable line write into the log (at most one log). *)
