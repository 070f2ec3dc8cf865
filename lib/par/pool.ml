(* A parallel map for independent simulation jobs: the calling domain and
   [width - 1] helper domains take item indices from one atomic counter.
   See pool.mli for the determinism contract jobs keep. *)

type batch = {
  n : int;
  run : int -> unit;  (* runs item [i] and fills its result slot *)
  next : int Atomic.t;  (* the lowest unclaimed index *)
  finished : int Atomic.t;  (* items fully run *)
}

type t = {
  helpers : int;
  lock : Mutex.t;
  wake : Condition.t;  (* helpers: a batch was published, or stop *)
  batch_done : Condition.t;  (* caller: the last item finished *)
  mutable epoch : int;  (* bumped at every publication *)
  mutable batch : batch option;
  mutable stopping : bool;
}

(* Set on helpers for good, and on the caller while it works a batch: a
   job that maps runs its inner map inline instead of publishing over the
   batch it belongs to. *)
let in_job : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Claim and run items until none is left.  Whoever finishes the last item
   wakes the caller; the atomic increments of [finished] order every slot
   write before the caller reads the slots. *)
let work pool b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      if Atomic.fetch_and_add b.finished 1 = b.n - 1 then begin
        Mutex.lock pool.lock;
        Condition.broadcast pool.batch_done;
        Mutex.unlock pool.lock
      end;
      loop ()
    end
  in
  loop ()

(* A helper parks between batches.  Waking late is harmless: a batch whose
   indices are all claimed gives it nothing to do. *)
let rec helper pool ~seen =
  Mutex.lock pool.lock;
  while pool.epoch = seen && not pool.stopping do
    Condition.wait pool.wake pool.lock
  done;
  let stopping = pool.stopping and epoch = pool.epoch and batch = pool.batch in
  Mutex.unlock pool.lock;
  if not stopping then begin
    Option.iter (work pool) batch;
    helper pool ~seen:epoch
  end

let with_pool ~jobs f =
  if jobs < 1 then invalid_arg "Pool.with_pool: jobs < 1";
  let pool =
    {
      helpers = jobs - 1;
      lock = Mutex.create ();
      wake = Condition.create ();
      batch_done = Condition.create ();
      epoch = 0;
      batch = None;
      stopping = false;
    }
  in
  let domains =
    List.init pool.helpers (fun _ ->
      Domain.spawn (fun () ->
        Domain.DLS.set in_job true;
        helper pool ~seen:0))
  in
  let stop () =
    Mutex.lock pool.lock;
    pool.stopping <- true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    List.iter Domain.join domains
  in
  Fun.protect ~finally:stop (fun () -> f pool)

type 'b slot = Empty | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map pool f xs =
  match pool with
  | Some pool when pool.helpers > 0 && not (Domain.DLS.get in_job) ->
    let items = Array.of_list xs in
    let slots = Array.make (Array.length items) Empty in
    let run i =
      slots.(i) <-
        (try Done (f items.(i)) with e -> Failed (e, Printexc.get_raw_backtrace ()))
    in
    let b =
      { n = Array.length items; run; next = Atomic.make 0; finished = Atomic.make 0 }
    in
    Mutex.lock pool.lock;
    pool.batch <- Some b;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    Domain.DLS.set in_job true;
    work pool b;
    Domain.DLS.set in_job false;
    Mutex.lock pool.lock;
    while Atomic.get b.finished < b.n do
      Condition.wait pool.batch_done pool.lock
    done;
    pool.batch <- None;
    Mutex.unlock pool.lock;
    (* Slots are read in index order, so the first failure by submission
       order is the one raised. *)
    Array.to_list
      (Array.map
         (function
           | Done r -> r
           | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
           | Empty -> assert false)
         slots)
  | Some _ | None -> List.map f xs
