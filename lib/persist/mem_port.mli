(** The memory a {!Strategy} runs over: the five word operations every
    strategy's bookkeeping is made of.

    {!timed} is the simulated hierarchy ({!Skipit_core.Thread}'s
    functions, so it must be used inside a thread task); every figure,
    serve, fleet and crash run uses it.  {!untimed} is a flat word table
    with no caches and no clock, for passes that only need the values a
    single-core run reads (the crash campaign's persist-point count). *)

type t = {
  load : int -> int;
  store : int -> int -> unit;
  cas : int -> expected:int -> desired:int -> bool;
  flush : int -> unit;
  fence : unit -> unit;
}

val timed : t
(** [Thread.load], [Thread.store], [Thread.cas], [Thread.flush] and
    [Thread.fence] themselves. *)

val untimed : unit -> t
(** A fresh zero-filled word memory: loads, stores and CAS act on the
    table at once; flush and fence do nothing.  Addresses are word
    aligned, as in the simulated memory. *)
