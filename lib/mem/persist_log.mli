(** Ordered record of persist events — the observability needed to test the
    paper's §4 memory semantics (Fig. 5).

    The DRAM model reports every line-sized write (the moment data becomes
    durable) to an attached log.  Tests replay the three §4 scenarios and
    assert exactly what the semantics guarantee:

    - plain stores persist in {e no} particular order (writeback-cache
      eviction order);
    - [writeback(c)] orders only the earlier writes {e to c's line} before
      the writeback's completion, not other lines;
    - [writeback(c); fence()] orders them before everything the thread does
      after the fence. *)

type event = { addr : int; time : int; seq : int }
(** A line became durable: line base address, simulated completion cycle,
    and a global sequence number (ties in [time] are broken by arrival). *)

type t

val create : unit -> t

val record : t -> addr:int -> time:int -> unit
(** Called by the DRAM model on each durable line write. *)

val length : t -> int
(** Events recorded so far, in O(1). *)

val addr_at : t -> int -> int
val time_at : t -> int -> int
val seq_at : t -> int -> int
(** Fields of the [i]-th event in sequence order, [0 <= i < length t]:
    an allocation-free walk over the log. *)

val events : t -> event list
(** Chronological (sequence) order; built from the log on each call. *)

val persists_of : t -> addr:int -> event list
(** Events for one line (any address within it, 64 B lines). *)

val persist_count : t -> addr:int -> int
(** [List.length (persists_of t ~addr)] in O(1): a per-line count kept as
    events are recorded. *)

(** Total answer to "did [a]'s line persist before [b]'s?" — a line that
    never persisted is reported explicitly instead of collapsing into
    [false] and relying on caller discipline. *)
type order =
  | Before  (** Both persisted; last persist of [a] ≤ first persist of [b]. *)
  | Not_before  (** Both persisted, but [a]'s last persist came later. *)
  | Never_persisted of { a : bool; b : bool }
      (** At least one line never persisted; the flags say which ones did. *)

val persisted_before : t -> int -> int -> order

val first_persist_time : t -> int -> int option
(** Completion cycle of the line's first persist, if any. *)

val last_persist_time : t -> int -> int option
(** Completion cycle of the line's most recent persist, if any. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] record exactly [src]'s events. *)

val clear : t -> unit
