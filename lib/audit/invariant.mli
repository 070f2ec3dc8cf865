(** Cross-layer structural invariants of the simulated hierarchy.

    The golden traces pin cycle counts; this module pins {e meaning}.  Every
    check encodes a property the paper's argument depends on:

    - {b Inclusion} (§3.4): every L1-resident line is present in the L2 with
      directory permissions that match the L1's view.
    - {b Single writer}: a Trunk copy excludes all other copies; a dirty
      line requires Trunk.
    - {b Skip-bit safety} (§6.2): a valid, clean L1 line with its skip bit
      set implies the L2 copy is not dirty — dropping its writeback cannot
      lose data.  Strengthened here to a value check: such a line's data
      must already equal the persistence domain's.
    - {b Value coherence}: a clean L1 line agrees word-for-word with the L2
      directory copy; a clean L2 line agrees with the level below.  This is
      the check that catches an elided-but-needed writeback the moment the
      metadata claims cleanliness.
    - {b Persist-log well-formedness} (§4): sequence numbers are dense and
      ascending, times non-negative.
    - {b Occupancy conservation} (with [~quiesced:true]): once every
      resource's busy horizon has passed, no FSHR pendings, flush-queue
      admissions, booked entries or ListBuffer admissions remain — the
      check that catches units leaked across {!Skipit_core.System.crash}.

    All checks are untimed observations; running them never perturbs the
    simulation. *)

type violation = {
  rule : string;  (** Stable identifier, e.g. ["inclusion"], ["skip-safety"]. *)
  addr : int option;  (** Offending line base address, when line-specific. *)
  detail : string;  (** Human-readable description. *)
}

val violation_to_string : violation -> string

val make : rule:string -> ?addr:int -> string -> violation
(** Construct a violation for checks that live outside this module (the
    fleet's conservation and durability checks report through the same
    record so campaign-style tooling renders them uniformly). *)

val check_all : ?quiesced:bool -> Skipit_core.System.t -> violation list
(** Run every structural check; [~quiesced:true] (default [false]) adds the
    occupancy-conservation checks that are only meaningful once no
    instruction stream is mid-flight. *)
