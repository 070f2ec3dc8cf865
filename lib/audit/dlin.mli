(** Durable linearizability (FliT, arXiv 2108.04202): after a crash and
    its repair, every acked update is durable and nothing else is.  This
    module is the one judge of it; the crash campaign and the fleet build a
    history and a snapshot, run the repair themselves, and report what it
    returns.

    A history lists the updates that started.  An update is [Acked stamp]
    when its caller was told it completed, stamps giving the order it
    linearized in, or [In_flight] when it started but was never acked
    (interrupted by a crash, or shed after touching the structure).

    Sets are judged per key.  Linearizability is local (Herlihy & Wing):
    a history of independent objects is linearizable iff each object's
    is, and every key of a set is one such object, so the per-key rule is
    as strict as enumerating whole-set states.  A key's final presence
    must equal the value of its last acked write by stamp (the initial
    state when it has none), or else the value of one of its in-flight
    writes.  A queue is one object: its final contents must be the acked
    prefix, or the prefix with one in-flight operation applied. *)

type ack = Acked of int  (** Linearization stamp. *) | In_flight
type write = Insert | Delete

val set :
  crashed:bool -> initial:int list -> (int * write * ack) list -> int list -> Invariant.violation list
(** [set ~crashed ~initial history snapshot]: the violations of the
    per-key rule, one per offending key in ascending key order.  [initial]
    holds the keys present before the history; [crashed] only words the
    verdicts ("after crash+repair" or "at quiesce"). *)

type queue_op = Enqueue of int | Dequeue

val queue : crashed:bool -> (queue_op * ack) list -> int list -> Invariant.violation list
(** [queue ~crashed history snapshot], the queue empty at first and its
    snapshot listed head first: no violation, or one naming both lists. *)
