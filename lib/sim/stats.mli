(** Measurement aggregation for simulation experiments.

    The paper reports medians and standard deviations over repeated
    microbenchmarks (§7.1: 50 repetitions, median latency) and mean throughput
    over repeated runs.  [Sample] collects raw observations and answers those
    queries; [Counter] is a named monotonic event counter used for
    microarchitectural accounting (hits, misses, nacks, skipped writebacks,
    ...). *)

module Sample : sig
  type t
  (** A growable collection of float observations. *)

  val create : unit -> t
  val add : t -> float -> unit
  val add_int : t -> int -> unit
  val count : t -> int
  val is_empty : t -> bool
  val mean : t -> float
  val total : t -> float
  val min : t -> float
  val max : t -> float

  val median : t -> float
  (** Median (average of middle two for even counts).  Raises
      [Invalid_argument] when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [\[0,100\]], nearest-rank with linear
      interpolation between adjacent order statistics.

      Documented edge behaviour:
      - empty sample: raises [Invalid_argument];
      - [p] NaN or outside [\[0,100\]]: raises [Invalid_argument];
      - single element: that element, for every valid [p];
      - [p = 0.] / [p = 100.]: exactly the minimum / maximum (no
        interpolation rounding). *)

  val stddev : t -> float
  (** Population standard deviation, [0.] for fewer than two samples. *)

  val values : t -> float array
  (** Snapshot of all observations in insertion order. *)

  val sort : float array -> unit
  (** The in-place ascending sort behind {!median} and {!percentile}.  On
      arrays without NaN or [-0.] (samples have neither) it leaves what
      [Array.stable_sort Float.compare] would. *)
end

module Counter : sig
  type t
  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
end

module Registry : sig
  type t
  (** A named set of counters, used as the per-component stats block so tests
      and benches can interrogate microarchitectural event counts by name. *)

  val create : unit -> t

  val counter : t -> string -> Counter.t
  (** [counter t name] returns the counter registered under [name], creating
      it on first use. *)

  val get : t -> string -> int
  (** [get t name] is the current count ([0] if never touched). *)

  val incr : t -> string -> unit
  val add : t -> string -> int -> unit

  type handle
  (** A pre-resolved counter for per-access paths: create it once, bump it
      without hashing a string.  Creating a handle registers its counter
      unreported; its first bump reports it, so a key whose handle never
      fires stays out of {!to_list}, exactly as with {!incr}. *)

  val handle : t -> string -> handle
  val bump : handle -> unit
  val bump_by : handle -> int -> unit

  val reset_all : t -> unit

  val to_list : t -> (string * int) list
  (** All reported counters sorted by name. *)

  val copy_into : src:t -> dst:t -> unit
  (** Make [dst] equal to [src], overwriting whatever [dst] held: the same
      keys in the same order, counts and reported flags.  [dst]'s counter
      for a key both share stays the one its handles bump. *)
end
