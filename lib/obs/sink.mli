(** A domain-local observability sink with a global fast "none installed"
    check.

    Each domain installs its own value, so parallel jobs never share one.
    A count of the domains holding a value lets {!get} skip the
    domain-local lookup while no domain has one: the disabled hooks on the
    hierarchy's per-event path then cost a single atomic read. *)

type 'a t

val create : unit -> 'a t
val get : 'a t -> 'a option
(** This domain's value. *)

val set : 'a t -> 'a option -> unit
(** Install ([Some]) or remove ([None]) this domain's value. *)

val take : 'a t -> 'a option
(** Remove and return this domain's value. *)
