(** The one Zipf sampler: a Q30 fixed-point CDF and a rank draw.

    The k-th most popular of n ranks has weight ∝ 1/k^θ, with θ given in
    thousandths.  The table is built from integer square roots and
    bit-by-bit log2/exp2 — no [libm] calls — so the same inputs give the
    same ranks on every host.  The serving workloads ([Workload.draw]) and
    the data-structure harness's skewed keys both draw from it. *)

val max_n : int
(** 2{^22}: the largest rank count {!cdf} accepts. *)

val max_theta_milli : int
(** 4000 (θ = 4.0). *)

val cdf : n:int -> theta_milli:int -> int array
(** Cumulative Q30 weights over ranks [1..n]: entry [k] is the weight of
    ranks [0..k], strictly increasing (every rank keeps a weight of at
    least 1).  Raises [Invalid_argument] unless [1 <= n <= max_n] and
    [0 <= theta_milli <= max_theta_milli]. *)

val draw : int array -> Rng.t -> int
(** A rank in [\[0, n)] drawn from a {!cdf} table: one [Rng.int] below the
    total weight, then a binary search. *)
