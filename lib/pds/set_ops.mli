(** Uniform set interface over the four data structures of §7.4, so the
    benchmark harness can sweep structure × strategy × persistence mode. *)

type kind = List_set | Hash_set | Bst_set | Skiplist_set

val all_kinds : kind list
val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

val uses_word_bits : kind -> bool
(** The BST owns spare pointer-word bits, which excludes Link-and-Persist
    (§7.4). *)

type structure
(** The structure a handle operates on. *)

type handle = {
  name : string;
  insert : Skipit_persist.Pctx.t -> int -> bool;
  delete : Skipit_persist.Pctx.t -> int -> bool;
  contains : Skipit_persist.Pctx.t -> int -> bool;
  repair : Skipit_persist.Pctx.t -> int;
      (** Post-crash recovery: complete interrupted operations durably. *)
  snapshot : Skipit_core.System.t -> int list;
      (** Untimed sorted key snapshot; raises {!Node.Cycle} when the
          structure's links loop. *)
  structure : structure;  (** What the closures above operate on. *)
}

val create : kind -> Skipit_persist.Pctx.t -> Skipit_mem.Allocator.t -> handle
(** Must run inside a {!Skipit_core.Thread} task.  Hash tables get 512
    buckets; adjust with {!create_sized}. *)

val create_sized : kind -> buckets:int -> Skipit_persist.Pctx.t -> Skipit_mem.Allocator.t -> handle

val rebind : handle -> Skipit_mem.Allocator.t -> handle
(** The same structure behind fresh closures that allocate from the given
    allocator: the handle for a copy of the simulated memory the structure
    lives in. *)
