(** Cycle-accounting critical-path attribution.

    Decomposes a request's arrival -> persist-complete span into exclusive
    per-stage cycles via cursor segmentation: marks partition the span, the
    residual lands in [Other] at close, so stage cycles always sum to the
    span (conservation by construction).  The sink is domain-local and
    [enabled ()] is one ref read — with no sink installed every hook is a
    cheap guard and simulated timing is unchanged. *)

type stage =
  | Adm_wait  (** admission-queue wait: intended arrival -> worker dequeue *)
  | L1_hit  (** L1 access: hit latency, load-to-use, store commit *)
  | Mshr  (** L1 miss path: MSHR wait, victim evict, refill beats *)
  | Flushq_wait  (** flush-queue admission wait for a CBO *)
  | Fshr  (** FSHR occupancy: drain waits, forwards, nack retries *)
  | L2  (** L2 directory access, probes, slice occupancy *)
  | Bank_wait  (** wait for the owning L2 NUCA bank's MSHR/ListBuffer *)
  | Dram  (** memory-side: L3 bank + DRAM channel *)
  | Fence  (** fence stall: FSHR drain + fence cost + epoch commit work *)
  | Commit_wait  (** op complete -> persist-epoch commit begins *)
  | Other  (** residual cycles no hook claimed *)

val all_stages : stage list
val stage_name : stage -> string

type frame

type record = { total : int; cycles : int array }

type t

val create : ?cores:int -> ?keep_records:bool -> unit -> t

(** {1 Frames} *)

val frame : at:int -> frame
(** A fresh frame whose span opens at [at]. *)

val mark_frame : frame -> stage -> at:int -> unit
(** Charge cycles from the frame's cursor up to [at] to [stage] and advance
    the cursor; a no-op when [at] is not past the cursor. *)

val frame_total : frame -> int
(** Sum of the cycles attributed so far. *)

val close : t -> frame -> at:int -> unit
(** Close the span at [at]: residual goes to [Other]; any cursor overshoot
    (background work that escaped the suspend bracketing) is trimmed so
    the stage sum equals [at - start] exactly.  Folds the frame into the
    sink's totals and (when [keep_records]) the per-request record list. *)

(** {1 The installed sink (domain-local)} *)

val enabled : unit -> bool
val start : ?cores:int -> ?keep_records:bool -> unit -> t
val stop : unit -> t option

val bind : core:int -> frame option -> unit
(** Bind (or with [None] unbind) the frame for [core]'s in-flight request;
    also makes it the active mark target. *)

val activate : core:int -> unit
(** Make [core]'s bound frame the active mark target — called at the
    Dcache entry points, where the core id is in hand. *)

val mark : stage -> at:int -> unit
(** [mark_frame] against the active frame, if any. *)

val suspend : unit -> frame option
(** Detach the active frame (returning it) so background work — FSHR
    walks, writeback acks — cannot pollute the cursor with future-dated
    completion times.  Pair with [restore]. *)

val restore : frame option -> unit

(** {1 Results} *)

val totals : t -> (string * int) list
(** Per-stage cycles summed over closed frames, in stage order — every
    stage present, zero or not, so downstream JSON is schema-stable. *)

val requests : t -> int
val trimmed : t -> int
val records : t -> record list
val conserved : t -> bool
(** True iff every closed record's stage cycles sum to its total span. *)
