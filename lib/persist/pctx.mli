(** Persistence context: a flush-avoidance {!Strategy} composed with one of
    the three persistence {e algorithms} of §7.4.

    The paper evaluates each data structure under three disciplines for
    {e where} writebacks and fences are placed:

    - {b Automatic} [36, 73]: every shared-memory access is instrumented —
      loads and stores alike persist the line they touch, and every
      operation ends with a fence;
    - {b NVTraverse} [27]: the traversal prefix of an operation runs bare;
      only the {e critical} accesses (reads validating and writes performing
      the update) persist, with a fence before an update returns;
    - {b Manual} [23]: nothing is automatic; the data structure author
      placed explicit {!persist} calls at the provably sufficient points,
      plus the final fence.

    Data-structure code is written once against this context; the mode
    decides which accesses actually reach {!Strategy.persist}. *)

type mode = Automatic | Nvtraverse | Manual

val mode_name : mode -> string
val all_modes : mode list

val mode_of_name : string -> mode option
(** Inverse of {!mode_name}. *)

type t

val make : Strategy.t -> mode -> t

val strategy : t -> Strategy.t
val mode : t -> mode
val stride : t -> int
(** Field stride for node layouts ({!Strategy.field_stride}). *)

val read_traverse : t -> int -> int
(** A read on the traversal path (persists only under [Automatic]). *)

val read_critical : t -> int -> int
(** A read the update depends on (persists under [Automatic] and
    [Nvtraverse]). *)

val write : t -> int -> int -> unit
(** A shared write (persists unless [Manual]). *)

val cas : t -> int -> expected:int -> desired:int -> bool
(** A linearizing CAS (persists on success unless [Manual]). *)

val persist : t -> int -> unit
(** Explicit persist point; only active under [Manual] (the other modes
    already persisted the access). *)

val commit : t -> updated:bool -> unit
(** Operation end: fence per the mode's rule (always under [Automatic],
    on updates otherwise). *)
