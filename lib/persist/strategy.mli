(** Software strategies for avoiding redundant writebacks (§7.4).

    The paper compares its hardware mechanism against the state-of-the-art
    software techniques.  Each strategy wraps the raw simulated-memory
    operations ({!Skipit_core.Thread}) with the bookkeeping that technique
    performs on real hardware:

    - {b plain} — no avoidance: every persist point issues the writeback;
    - {b FliT adjacent} [73] — a counter word next to every variable (same
      cache line); a store sets it, a persist writes back only when set;
    - {b FliT hash table} [73] — the counters live in a separate fixed-size
      table indexed by address hash; collisions cause spurious writebacks
      and the table competes for cache space (Fig. 16);
    - {b Link-and-Persist} [23] — a mark {e inside} the data word (we use
      bit 62) set by stores and cleared once the line is persisted; loads
      must mask it, and it conflicts with algorithms that use spare word
      bits themselves (the BST), exactly as the paper notes;
    - {b Skip It} — no software bookkeeping at all: every persist point
      issues CBO.FLUSH and the hardware drops redundant ones;
    - {b none} — the non-persistent baseline (dotted line in Figs 14/15).

    All operation functions must run inside a {!Skipit_core.Thread} task. *)

type t = {
  name : string;
  field_stride : int;
      (** Bytes between logical fields in node layouts — 16 for FliT
          adjacent (value word + counter word), 8 otherwise. *)
  read : int -> int;  (** Load a shared word (masking any strategy mark). *)
  write : int -> int -> unit;  (** Store a shared word + bookkeeping. *)
  cas : int -> expected:int -> desired:int -> bool;
      (** CAS on a shared word, transparent to any strategy mark. *)
  persist_store : int -> unit;
      (** Persist point after a store/CAS to the word (FliT decrements the
          word's counter after flushing; Link-and-Persist clears the in-word
          mark). *)
  persist_load : int -> unit;
      (** Persist point after a load of the word — the side the software
          techniques optimise: the writeback is issued only when the word
          has unflushed stores pending (FliT counter ≠ 0, LaP mark set). *)
  fence : unit -> unit;  (** Persist barrier ([unit] for [none]). *)
  persistent : bool;  (** [false] only for [none]. *)
  deferrable : bool;
      (** The persist points carry no software bookkeeping, so a group-commit
          batcher may postpone and deduplicate them to an epoch boundary
          (plain, Skip It).  [false] for FliT and Link-and-Persist, whose
          persist points maintain counters / in-word marks that other threads
          observe — for those only the trailing fence may be batched. *)
}

val plain : unit -> t
val none : unit -> t
val skipit_hw : unit -> t

val flit_adjacent : unit -> t

val flit_hash : table_base:int -> table_slots:int -> t
(** The counter table must be a [table_slots * 8]-byte region reserved via
    the system allocator (zero-initialised memory). *)

val link_and_persist : unit -> t

val lap_strip : int -> int
(** A word without the in-word mark bit {!link_and_persist} sets (bit 62):
    what recovery procedures and tests read from persisted images. *)
