(** Per-core load-store unit model (§3.2) over the L1 data cache.

    Maintains the core's logical clock and fires instructions into the data
    cache with BOOM's ordering discipline in transaction-level form:

    - loads return their value and advance the clock to load-to-use
      completion;
    - stores and CBO.X are STQ entries fired at commit — a CBO.X advances
      the clock only to its {e commit} time (it is buffered by the flush
      unit and executes asynchronously, §5.2);
    - fences drain the STQ and wait for the flush counter (§5.3);
    - nacks (full flush queue, pending-writeback conflicts) surface as
      stalls computed by the data cache.

    The executed-instruction and cycle counters feed the throughput
    figures. *)

type t

val create : Skipit_l1.Dcache.t -> t
val core : t -> int

val clock : t -> int
val advance_to : t -> int -> unit
(** Move the clock forward (scheduler use); never backwards. *)

val exec : t -> Instr.t -> int
(** Execute one instruction at the current clock; returns its value (loaded
    word, CAS success as 0/1, else 0) and advances the clock. *)

val load : t -> int -> int
val store : t -> int -> int -> unit
val cas : t -> int -> expected:int -> desired:int -> bool
(** {!exec} of a [Load], [Store] or [Cas], without building the
    instruction. *)

val instructions : t -> int
(** Instructions executed so far. *)

val pending_writebacks : t -> int
(** Current flush-counter value for this core. *)

val pending_stores : t -> int
(** Stores still draining from the STQ (0 when [Params.async_stores] is
    off). *)

val copy_into : src:t -> dst:t -> unit
(** Give [dst] [src]'s clock, retired-instruction count and store queue.
    The data cache it issues to is not copied ({!Skipit_l1.Dcache.copy_into}
    does that). *)
