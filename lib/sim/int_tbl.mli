(** Open-addressed int->int hash table for per-line bookkeeping on the
    access path: no boxing, no [option] allocation on lookup, int hashing
    instead of structural hashing.  Keys must be non-negative (they are
    addresses).  Entries are overwritten in place and never removed. *)

type t

val create : ?size_hint:int -> unit -> t
(** [create ~size_hint ()] pre-sizes the table for about [size_hint]
    entries (default 64), avoiding rehashes while it fills. *)

val replace : t -> int -> int -> unit
(** [replace t key v] binds [key] to [v], overwriting any previous
    binding.  Raises [Invalid_argument] on a negative key. *)

val find_default : t -> int -> default:int -> int
(** [find_default t key ~default] is the value bound to [key], or
    [default] when unbound. *)

val mem : t -> int -> bool

val probe_length : t -> int -> int
(** Slots a lookup of the key examines, its home slot included: 1 when
    the key (or an empty slot) sits at home.  For tests of the hash's
    spread. *)

val length : t -> int
val clear : t -> unit

val copy : t -> t
(** An independent table with the same bindings. *)

val copy_into : src:t -> dst:t -> unit
(** Make [dst] equal to [src], slots and capacity included, overwriting
    whatever [dst] held.  Reuses [dst]'s arrays when the capacities
    match. *)

val iter : t -> (int -> int -> unit) -> unit
