(** Seeded, bit-identical workload shapes for the serving tier.

    The arrival layer ({!Arrival}) decides {e when} requests arrive; this
    module decides {e what} they ask for: key popularity (uniform or
    Zipfian), read/write mix, and hot-key churn.  Combined with the
    diurnal [Phased] arrival wrapper it gives the serving and fleet
    engines production-shaped traffic — skewed popularity keeps hot lines
    L1-dirty (where skip bits win) while concentrating directory probes
    on the contended lines (where they hurt), which is the trade the
    paper makes interesting.

    Everything is a pure function of the configuration and seed.  Zipf
    ranks come from {!Skipit_sim.Zipf}'s integer-only Q30 table, so the
    same config yields the same bytes on every host, every [--jobs]
    width. *)

type keys =
  | Uniform
  | Zipf of { theta_milli : int }
      (** Zipfian popularity with exponent [theta_milli / 1000]: the
          k-th most popular of n keys has weight ∝ 1/k^θ.  θ = 0 is
          uniform; FliT-style benchmarks use θ ≈ 0.99. *)

type t = {
  keys : keys;
  churn : int option;
      (** Hot-set rotation period in cycles: every [period] cycles the
          rank→key mapping rotates by a fresh seeded offset, so the
          popular keys move while the popularity {e distribution} stays
          fixed.  Requires Zipf keys. *)
}

val default : t
(** Uniform keys, no churn — the historical behaviour. *)

val default_zipf_theta_milli : int
(** 990 (θ = 0.99), the FliT evaluation standard. *)

val keys_name : keys -> string
val keys_of_name : string -> keys option
(** ["uniform"], ["zipf"] (θ = 0.99), or ["zipf:THETA"] with [THETA] a
    decimal like [0.9] (up to 3 fractional digits; parsed to integer
    thousandths, so names round-trip exactly). *)

val name : t -> string
(** E.g. ["uniform"], ["zipf:0.99"], ["zipf:0.99+churn:8000"]. *)

val validate : t -> key_range:int -> (unit, string) result

val draw : t -> key_range:int -> update_pct:int -> seed:int -> Arrival.draw
(** The op/key sampler to hand {!Arrival.schedule}.  Uniform keys
    reproduce {!Arrival.uniform_draw} exactly (byte-identical schedules);
    Zipf keys draw a rank from {!Skipit_sim.Zipf} and map it through a
    seeded permutation, rotated per churn epoch.  Raises [Invalid_argument]
    on a config that fails {!validate}. *)

val mix_of_spec : string -> int option
(** ["R:W"] read/write mix → update percentage (e.g. ["80:20"] → [20]). *)
