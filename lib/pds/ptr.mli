(** Tagged-pointer helpers for the lock-free structures.

    Simulated node addresses are at least 8-byte aligned, so the low three
    bits of a pointer word are free.  The structures use:

    - bit 0 — the Harris {e mark} ("the node this edge leads to is logically
      deleted");
    - bit 1 — the Natarajan-Mittal {e tag} ("this edge's subtree is being
      restructured; do not insert under it").

    These low bits never collide with Link-and-Persist's bit 62 — the BST is
    excluded from that strategy for the algorithmic reason the paper gives
    (its CAS-based edge manipulation owns the word's spare bits), not a
    physical bit clash. *)

val addr_of : int -> int
(** Strip both bits. *)

val is_marked : int -> bool
val is_tagged : int -> bool
val with_mark : int -> int
val with_tag : int -> int

val null : int
(** The null simulated pointer (0). *)

val is_null : int -> bool
