(** Per-line L2 directory state (§3.4).

    The SiFive inclusive cache keeps a full map of directory bits with each
    line's metadata: which L1 clients hold the line and at what permission,
    plus the line's dirty bit.  This module is the pure bookkeeping; the
    timed agent lives in {!Inclusive_cache}. *)

open Skipit_tilelink

type t = {
  mutable dirty : bool;  (** L2 copy differs from DRAM. *)
  data : int array;  (** The BankedStore words for this line. *)
  owners : Perm.t array;  (** Per-client permission (full map). *)
}

val make : n_cores:int -> words:int -> t
(** Fresh storage for one line: clean, no owners, [words] zero words.  A
    cache makes one per slot, on the slot's first fill, and reuses it. *)

val reset : t -> unit
(** Start a new line in this storage: clean, no owners.  The words are the
    filler's to overwrite. *)

val copy_into : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s state; the line and core counts must
    match. *)

val owner_perm : t -> int -> Perm.t
val set_owner : t -> int -> Perm.t -> unit

val owners_into : t -> Perm.t -> exclude:int -> int array -> int
(** [owners_into t level ~exclude buf] writes the clients holding strictly
    more than [level] into the caller's reusable buffer, in ascending
    order, skipping [exclude] (pass [-1] to skip none), and returns their
    count.  Allocation-free, for the probe paths.  The buffer must hold at
    least [n_cores] entries. *)
