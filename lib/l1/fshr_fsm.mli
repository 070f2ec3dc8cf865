(** The Flush Status Holding Register state machine of Fig. 7 (§5.2).

    A pure model of one FSHR: given the execution plan inferred at dequeue
    (did the request hit, was the line dirty, is it a clean or a flush), the
    FSM walks

    {v invalid → [meta_write] → [fill_buffer] → (root_release_data |
       root_release) → root_release_ack → invalid v}

    The five legal paths are:
    + hit, dirty, flush  — meta_write (invalidate), fill_buffer, release+data;
    + hit, dirty, clean  — meta_write (clear dirty), fill_buffer, release+data;
    + hit, clean line, flush — meta_write (invalidate), release without data;
    + hit, clean line, clean — no metadata change, release without data;
    + miss — release without data (the line may be dirty elsewhere, §5.2).

    This module is unit-testable in isolation; {!Flush_unit} drives it with
    real timing. *)

open Skipit_tilelink

type state =
  | Invalid
  | Meta_write
  | Fill_buffer
  | Root_release_data
  | Root_release
  | Root_release_ack

val pp_state : Format.formatter -> state -> unit
val equal_state : state -> state -> bool

type plan = { hit : bool; dirty : bool; kind : Message.wb_kind }

val plan : hit:bool -> dirty:bool -> kind:Message.wb_kind -> plan
(** The plan with these fields, shared: one value per combination, built
    once, so taking it allocates nothing. *)

type meta_effect =
  | No_meta_change
  | Invalidate_line  (** CBO.FLUSH on a hit. *)
  | Clear_dirty  (** CBO.CLEAN on a dirty hit. *)

val meta_effect : plan -> meta_effect

val sends_data : plan -> bool
(** Whether the RootRelease carries the line (hit ∧ dirty). *)

val first_state : plan -> state
(** Successor of [Invalid] on accepting a request with this plan. *)

val next : plan -> state -> state
(** One transition.  Raises [Invalid_argument] from [Invalid] (use
    {!first_state}) — and [Root_release_ack] loops back to [Invalid] when the
    ack arrives. *)

val path : plan -> state list
(** The full visit sequence from acceptance to (and including)
    [Root_release_ack]. *)

val state_cycles :
  state ->
  meta_cycles:int ->
  fill_cycles:int ->
  data_beats:int ->
  int
(** Occupancy of each state: [Meta_write] = metadata-array access,
    [Fill_buffer] = data-array read (1 cycle with the §5.2 widened array),
    [Root_release_data] = [data_beats] bus beats (4 on a 16 B bus),
    [Root_release] = 1 beat, [Root_release_ack] = 0 (pure wait). *)
