(** TileLink permission lattice and its correspondence to MESI (§2.2).

    A client holds one of three permission levels on a cache block:

    - [None]   — no copy (MESI Invalid);
    - [Branch] — read-only copy, possibly shared (MESI Shared);
    - [Trunk]  — exclusive read/write copy (MESI Exclusive, and MESI Modified
      once the local dirty bit is set).

    Coherence messages carry {e transition parameters}: a [grow] names the
    upgrade an Acquire requests, a [shrink] (a.k.a. cap/prune in the spec)
    names the downgrade a Probe demands or a Release/ProbeAck performs, and a
    [report] states a final permission without change.  The predicates here
    are the single source of truth for the levels a transition moves
    between: the L1 and the L2 read a grant's level off {!grow_to}, and
    the L1 names its downgrade reports with {!shrink_for}. *)

type t = Nothing | Branch | Trunk

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order [Nothing < Branch < Trunk]. *)

val includes : t -> t -> bool
(** [includes have need]: do [have] permissions suffice for an access that
    needs [need]? *)

val to_string : t -> string

(** Permission-growth parameter carried by an Acquire (client asks the
    manager to raise it from the first level to the second). *)
type grow = N_to_B | N_to_T | B_to_T

(** Permission-shrink parameter carried by Probe (demand), ProbeAck and
    Release (report of a performed downgrade). *)
type shrink = T_to_B | T_to_N | B_to_N | T_to_T | B_to_B | N_to_N

val grow_from : grow -> t
val grow_to : grow -> t
val shrink_from : shrink -> t
(** The level the client held {e before} the downgrade (for the [X_to_X]
    reports, the unchanged level). *)

val shrink_to : shrink -> t

val shrink_for : from:t -> cap:t -> shrink
(** [shrink_for ~from ~cap] is the downgrade report when a client at [from]
    is capped to at most [cap].  When [from] is already within [cap] this is
    one of the no-change reports. *)
