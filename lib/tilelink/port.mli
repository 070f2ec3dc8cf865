(** Typed TileLink agent ports (§2.2, Fig. 3).

    A [Port.t] is one client↔manager link of the hierarchy: the L1 side (the
    {e client}) sends AcquireBlock on channel A and Release/RootRelease on
    channel C, and receives Grants on channel D; the manager side (the L2)
    sends Probes on channel B and receives their acks on C.  The port owns

    - the per-channel wire occupancy (one physical wire set per channel, so
      concurrent senders serialize — eight FSHRs may be ready to release
      simultaneously, but their beats leave one at a time on channel C;
      grants share channel D; channels B and E carry single-beat messages
      and are modelled as counters only);
    - the binding to the two agents ({!connect_manager}/{!connect_client}),
      replacing any direct module reference between hierarchy levels;
    - per-channel counters: [<chan>_beats], [<chan>_stalls],
      [<chan>_wait_cycles], plus request counts ([acquires], [releases],
      [root_releases], [root_invals], [b_probes]).

    Topology is a wiring choice of the system builder: a {e crossbar} gives
    every port its own {!Channels.t}; a {e shared bus} threads one
    {!Channels.t} through every port, so all cores contend for the same
    wires. *)

(** A completion time with one flag, packed in an immediate int so a reply
    allocates nothing.  A grant's flag is {e GrantDataDirty}: the block is
    not persisted and the L1 must clear its skip bit (§6.1).  A memory-side
    read's flag is [dirty_below] (see {!Memside}). *)
module Reply : sig
  type t = private int

  val v : at:int -> flag:bool -> t
  val at : t -> int
  val flag : t -> bool
end


val no_data : int array
(** The [~data] of a Release or RootRelease that carries no line. *)

val carries_data : int array -> bool
(** [false] exactly for {!no_data} (any empty array). *)

(** What a manager must implement to serve a client port.  All operations
    take [now] = the cycle the message leaves the client and return
    completion times that include link traversal and downstream contention.

    Line data moves without copies between levels: a grant writes the line
    (at the requested permission, always) into the client's storage
    [into] from word [off], and its reply is the cycle the Grant(Data)
    finishes arriving at the client, flagged when it is GrantDataDirty; a
    data-bearing release hands the manager the client's storage [data] with
    the line at word [off], which the manager copies before it returns. *)
type manager = {
  acquire : addr:int -> grow:Perm.grow -> now:int -> into:int array -> off:int -> Reply.t;
  release : addr:int -> shrink:Perm.shrink -> data:int array -> off:int -> now:int -> int;
  root_release :
    addr:int -> kind:Message.wb_kind -> data:int array -> off:int -> now:int -> int;
  root_inval : addr:int -> now:int -> int;
  peek_word : int -> int;  (** Functional read, costs no simulated time. *)
}

(** What a client must implement to accept B-channel traffic. *)
type client = {
  probe : addr:int -> cap:Perm.t -> now:int -> into:int array -> off:int -> Reply.t;
      (** The reply is the cycle the ProbeAck arrives back at the manager,
          flagged when the client held the line dirty: the data it hands
          back on channel C is then written into [into] from word [off]. *)
}

val bank_fold : shift:int -> mask:int -> int -> int
(** [bank_fold ~shift ~mask line] XOR-folds [line] in [shift]-wide chunks
    under [mask]: the NUCA bank hash that picks a line's L2 bank (and its
    banked wire set), and the data-array slice within a bank.  Plain
    low-bit interleaving leaves power-of-two-strided patterns hammering one
    bank in lockstep; folding the upper bits in decorrelates them.
    [shift] must be positive. *)

(** The physical wire sets of one link.  Create one per port for a crossbar,
    or share one across ports for a bus. *)
module Channels : sig
  type t

  val create : name:string -> t

  val copy_into : src:t -> dst:t -> unit
  (** Give [dst]'s A, C and D wires [src]'s occupancy. *)
end

type t

val create :
  ?channels:Channels.t ->
  ?bank_channels:Channels.t array ->
  ?line_bytes:int ->
  name:string ->
  unit ->
  t
(** [create ~name ()] makes a port with private channel wires;
    [create ~channels ~name ()] attaches it to existing (shared) wires;
    [create ~bank_channels ~line_bytes ~name ()] routes each message to
    the wire set of the LLC bank owning its line
    ([addr / line_bytes mod banks], power-of-two bank counts) — the
    per-bank bus of a banked NUCA LLC.  [line_bytes] defaults to 64. *)

val name : t -> string
val stats : t -> Skipit_sim.Stats.Registry.t
val channels : t -> Channels.t

val copy_into : src:t -> dst:t -> unit
(** Make [dst]'s wires and counters equal to [src]'s.  The connected
    agents are wiring, not state: they stay as they are.  The two ports
    must have the same wiring shape. *)

val connect_manager : t -> manager -> unit
(** Bind the manager side.  Raises [Invalid_argument] on a second bind. *)

val connect_client : t -> client -> unit
(** Bind the client side.  Raises [Invalid_argument] on a second bind. *)

(** {2 Channel occupancy}

    Serialization time is already part of [finish]: contention-free sends
    cost nothing extra, concurrent senders queue. *)

val send_a : t -> addr:int -> now:int -> int
(** Occupy channel A for one header beat; returns the cycle the message has
    left the client.  [addr] selects the bank wire set on banked ports
    (ignored on unbanked wiring). *)

val send_c : t -> addr:int -> finish:int -> beats:int -> int
(** Occupy channel C for [beats] cycles ending no earlier than [finish]
    (4 for a data-bearing release on the 16 B bus); returns the
    send-completion cycle. *)

val recv_d : t -> addr:int -> finish:int -> beats:int -> int
(** Occupy channel D (grants, acks into the client). *)

(** {2 Client-side requests} — forwarded to the connected manager.
    Raise [Invalid_argument] when no manager is connected. *)

val acquire :
  t -> addr:int -> grow:Perm.grow -> now:int -> into:int array -> off:int -> Reply.t

val release :
  t -> addr:int -> shrink:Perm.shrink -> data:int array -> off:int -> now:int -> int

val root_release :
  t -> addr:int -> kind:Message.wb_kind -> data:int array -> off:int -> now:int -> int

val root_inval : t -> addr:int -> now:int -> int
val peek_word : t -> int -> int

(** {2 Manager-side requests} *)

val probe : t -> addr:int -> cap:Perm.t -> now:int -> into:int array -> off:int -> Reply.t
(** B-channel Probe to the connected client.  Raises [Invalid_argument] when
    no client is connected. *)

(** {2 Memory-side ports}

    The boundary below the LLC (L2↔DRAM, L2↔L3, L3↔DRAM) carries whole-line
    transfers rather than coherence traffic.  A [Memside.t] wraps an agent's
    operations with per-port counters ([reads], [writes], [persists],
    [read_beats], [write_beats], [stalls], [wait_cycles]); the agent reports
    its own queueing via {!Memside.note_wait}. *)
module Memside : sig
  (** Semantics the cache above relies on:

      - [read_line] writes the freshest copy into the receiver's [into]
        (its first line-size words) and replies when it is available,
        flagged when that copy is
        {e dirty with respect to the persistence domain} (a dirty memory-side
        copy means the line is not yet durable — the grant flavour and hence
        the skip bit must reflect it, §6);
      - [write_line] is a cacheable victim writeback: it may lodge in the
        memory-side cache without reaching DRAM;
      - [persist_line] is a durability write (RootRelease path): it must not
        be acknowledged before the data is in DRAM;
      - [persist_if_dirty] pushes the agent's own dirty copy (if any) to
        DRAM — needed so the L2's "trivial skip" (§5.5) never skips a line
        whose only dirty copy lives below it;
      - [discard_line] drops any cached copy without writing back
        (CBO.INVAL);
      - [crash] loses all volatile state. *)
  type ops = {
    read_line : addr:int -> now:int -> into:int array -> Reply.t;
        (** [available_at], flagged [dirty_below]. *)
    write_line : addr:int -> data:int array -> now:int -> int;
    persist_line : addr:int -> data:int array -> now:int -> int;
    persist_if_dirty : addr:int -> now:int -> int;
    discard_line : addr:int -> unit;
    peek_word : int -> int;
    crash : unit -> unit;
  }

  type t

  type waits
  (** The port's [stalls]/[wait_cycles] counters, handed to the agent. *)

  val create : name:string -> beats_per_line:int -> (waits -> ops) -> t
  (** The agent's [ops] are built against the port's own wait counters so
      the agent can report queueing with {!note_wait}. *)

  val name : t -> string
  val stats : t -> Skipit_sim.Stats.Registry.t

  val note_wait : waits -> int -> unit
  (** [note_wait waits cycles] records [cycles] of queueing delay (no-op for
      [cycles <= 0]). *)

  val read_line : t -> addr:int -> now:int -> into:int array -> Reply.t
  val write_line : t -> addr:int -> data:int array -> now:int -> int
  val persist_line : t -> addr:int -> data:int array -> now:int -> int
  val persist_if_dirty : t -> addr:int -> now:int -> int
  val discard_line : t -> addr:int -> unit
  val peek_word : t -> int -> int
  val crash : t -> unit

  val copy_into : src:t -> dst:t -> unit
  (** Make [dst]'s counters equal to [src]'s; the agent behind the port is
      copied by its owner. *)
end
