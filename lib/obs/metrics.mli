(** Windowed metrics registry keyed to simulated cycles.

    Counters, occupancy series (per-window alloc/free deltas, integrated
    to a level series at export) and log2-bucket histograms, aggregated
    into fixed-width windows of the *simulated* clock — no wall clock
    anywhere, so contents are byte-identical at any [--jobs] width.  The
    hierarchy's series are read off {!Trace} events ({!start}). *)

type t

val default_window : int
val create : ?window:int -> unit -> t
val widx : t -> at:int -> int
(** Window index of simulated cycle [at]. *)

val bucket_of : int -> int
(** Histogram bucket of a value: 0 for [v <= 0], else its bit width, so
    bucket [b >= 1] covers [2^(b-1), 2^b). *)

val bucket_lo : int -> int
(** Inclusive lower bound of a bucket. *)

(** {1 Recording against an explicit registry} *)

val counter_incr : t -> string -> at:int -> unit
val counter_add : t -> string -> at:int -> int -> unit
val occupancy_alloc : t -> string -> at:int -> unit
val occupancy_free : t -> string -> at:int -> unit
val histogram_observe : t -> string -> at:int -> int -> unit

(** {1 Recording the hierarchy} *)

val start : ?window:int -> unit -> t
(** A fresh registry, installed as this domain's {!Trace} listener: DRAM
    reads/writes, flush-queue enqueues, FSHR and MSHR occupancy and FSHR
    dequeues are windowed off the trace events the hierarchy emits. *)

val stop : unit -> unit
(** Remove this domain's {!Trace} listener. *)

(** {1 Deterministic views} *)

val counter_series : t -> string -> (int * int) list
(** Sorted [(window, count)] pairs for a counter. *)

val occupancy_series : t -> string -> (int * int * int * int) list
(** Sorted [(window, allocs, frees, level-at-window-end)] rows. *)

val counter_total : t -> string -> int
val histogram_totals : t -> string -> int * int
(** [(count, sum)] across all windows. *)

val counter_tracks : t -> (string * (int * int) list) list
(** Per-window points [(cycle, value)] for Perfetto counter tracks:
    counters by window count, occupancy by level at window end. *)

(** {1 Exporters} *)

val to_prometheus : t -> string
val to_csv : t -> string
val to_json : t -> string
