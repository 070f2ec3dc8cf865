module S = Skipit_core.System
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Sample = Skipit_sim.Stats.Sample
module Pool = Skipit_par.Pool
open Skipit_tilelink

let sizes_default =
  let rec up n acc = if n > 32 * 1024 then List.rev acc else up (n * 2) (n :: acc) in
  up 64 []

let line_bytes = 64

let wb kind addr =
  match kind with Message.Wb_clean -> T.clean addr | Message.Wb_flush -> T.flush addr

(* Carve a [size]-byte region into per-thread shares of whole lines.  With
   fewer lines than threads, only the first [lines] threads work. *)
let shares ~size ~threads =
  let lines = size / line_bytes in
  let per = max 1 (lines / threads) in
  List.init threads (fun i ->
    let first = i * per in
    let count = if i = threads - 1 then lines - first else per in
    first, max 0 count)
  |> List.filter (fun (_, count) -> count > 0)

(* Run one measured configuration: [setup] then [measure] per thread; the
   reported elapsed time is (latest measure end) − (earliest measure
   start). *)
let run_once params ~threads ~size ~offset ~setup ~measure =
  let params = Params.with_cores params threads in
  let sys = S.create params in
  let base =
    Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line_bytes (size + offset) + offset
  in
  let starts = Array.make threads max_int in
  let ends = Array.make threads 0 in
  let tasks =
    shares ~size ~threads
    |> List.mapi (fun core (first, count) ->
         {
           T.core;
           body =
             (fun () ->
               let lo = base + (first * line_bytes) in
               setup ~lo ~count;
               T.fence ();
               starts.(core) <- T.now ();
               measure ~lo ~count;
               ends.(core) <- T.now ());
         })
  in
  ignore (T.run sys tasks);
  let t0 = Array.fold_left min max_int starts in
  let t1 = Array.fold_left max 0 ends in
  t1 - t0

let dirty_lines ~lo ~count =
  for i = 0 to count - 1 do
    T.store (lo + (i * line_bytes)) (i + 1)
  done

(* Shift the region by a different line offset each repetition so set
   mapping varies, mimicking the paper's run-to-run variance. *)
let rep_offset r = r * line_bytes * 7

let median_over ~repeats f =
  let sample = Sample.create () in
  for r = 0 to repeats - 1 do
    Sample.add_int sample (f ~offset:(rep_offset r))
  done;
  sample

(* == Job-list producers ================================================= *)

(* Every experiment below is a grid of *independent* simulations.  A
   [prepared] experiment exposes that grid as a list of self-contained jobs
   (each builds its own system, so nothing is shared across pool domains)
   plus a pure reducer from the jobs' results — in submission order — to
   the experiment's value.  [run_prepared] executes a batch of prepared
   experiments on an optional domain pool; with no pool (or a width-1
   pool) the jobs run inline in exactly the order the sequential driver
   used, so results are identical by construction. *)
type 'r prepared = {
  jobs : (unit -> float) list;
  reduce : float list -> 'r;
}

let run_prepared ?pool preps =
  let jobs = List.concat_map (fun p -> p.jobs) preps in
  let ys = Pool.map pool (fun job -> job ()) jobs in
  let rec split preps ys =
    match preps with
    | [] -> []
    | p :: rest ->
      let rec take n ys acc =
        if n = 0 then List.rev acc, ys
        else
          match ys with
          | [] -> invalid_arg "Micro.run_prepared: result count mismatch"
          | y :: tl -> take (n - 1) tl (y :: acc)
      in
      let mine, others = take (List.length p.jobs) ys [] in
      p.reduce mine :: split rest others
  in
  split preps ys

(* One job per sweep point; the median over repetitions runs inside the
   job (repetitions of one point share nothing either, but the point is
   the natural unit the tables are built from). *)
let prep_sweep ?(params = Params.boom_default) ~label ~threads ~sizes ~repeats ~setup
    ~measure () =
  {
    jobs =
      List.map
        (fun size () ->
          let sample =
            median_over ~repeats (fun ~offset ->
              run_once params ~threads ~size ~offset ~setup ~measure)
          in
          Sample.median sample)
        sizes;
    reduce =
      (fun ys -> Series.v label (List.map2 (fun s y -> float_of_int s, y) sizes ys));
  }

(* One job per repetition: the §7.2 scalars repeat 50×, which is the whole
   grid for this experiment. *)
let prep_single_line ?(params = Params.boom_default) ~kind ~repeats () =
  {
    jobs =
      List.init repeats (fun r () ->
        float_of_int
          (run_once params ~threads:1 ~size:line_bytes ~offset:(rep_offset r)
             ~setup:dirty_lines
             ~measure:(fun ~lo ~count ->
               for i = 0 to count - 1 do
                 wb kind (lo + (i * line_bytes))
               done;
               T.fence ())));
    reduce =
      (fun ys ->
        let sample = Sample.create () in
        List.iter (Sample.add sample) ys;
        Sample.median sample, Sample.stddev sample);
  }

let prep_writeback_sweep ?params ~kind ~threads ~sizes ~repeats () =
  prep_sweep ?params
    ~label:(Printf.sprintf "cbo.%s/%dT" (match kind with Message.Wb_clean -> "clean" | Message.Wb_flush -> "flush") threads)
    ~threads ~sizes ~repeats ~setup:dirty_lines
    ~measure:(fun ~lo ~count ->
      for i = 0 to count - 1 do
        wb kind (lo + (i * line_bytes))
      done;
      T.fence ())
    ()

let prep_write_wb_read ?params ~kind ~threads ~sizes ~repeats () =
  prep_sweep ?params
    ~label:(Printf.sprintf "%s/%dT" (match kind with Message.Wb_clean -> "clean" | Message.Wb_flush -> "flush") threads)
    ~threads ~sizes ~repeats
    ~setup:(fun ~lo:_ ~count:_ -> ())
    ~measure:(fun ~lo ~count ->
      dirty_lines ~lo ~count;
      for _pass = 1 to 10 do
        for i = 0 to count - 1 do
          wb kind (lo + (i * line_bytes))
        done
      done;
      T.fence ();
      for i = 0 to count - 1 do
        ignore (T.load (lo + (i * line_bytes)))
      done)
    ()

(* All threads write back the same region (contended). *)
let contended_once params ~kind ~threads ~size ~offset =
  let params = Params.with_cores params threads in
  let sys = S.create params in
  let base =
    Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line_bytes (size + offset)
    + offset
  in
  let lines = size / line_bytes in
  let starts = Array.make threads max_int in
  let ends = Array.make threads 0 in
  let task core =
    {
      T.core;
      body =
        (fun () ->
          if core = 0 then dirty_lines ~lo:base ~count:lines;
          T.fence ();
          starts.(core) <- T.now ();
          for i = 0 to lines - 1 do
            wb kind (base + (i * line_bytes))
          done;
          T.fence ();
          ends.(core) <- T.now ());
    }
  in
  ignore (T.run sys (List.init threads task));
  Array.fold_left max 0 ends - Array.fold_left min max_int starts

let prep_contended_sweep ?(params = Params.boom_default) ~kind ~threads ~sizes ~repeats () =
  {
    jobs =
      List.map
        (fun size () ->
          let sample =
            median_over ~repeats (fun ~offset ->
              contended_once params ~kind ~threads ~size ~offset)
          in
          Sample.median sample)
        sizes;
    reduce =
      (fun ys ->
        Series.v
          (Printf.sprintf "contended/%dT" threads)
          (List.map2 (fun s y -> float_of_int s, y) sizes ys));
  }

let prep_redundant ?(params = Params.boom_default) ~kind ~skip_it ~threads ~redundant
    ~sizes ~repeats () =
  let params = Params.with_skip_it params skip_it in
  prep_sweep ~params
    ~label:(Printf.sprintf "%s/%dT" (if skip_it then "skip-it" else "naive") threads)
    ~threads ~sizes ~repeats
    ~setup:(fun ~lo:_ ~count:_ -> ())
    ~measure:(fun ~lo ~count ->
      (* The paper's exact per-line burst: a store, one writeback, then the
         redundant writebacks back-to-back to the same line.  Early
         redundant ones coalesce with the pending request (§5.3); the rest
         are dropped by Skip It or pay the L2 round trip. *)
      for i = 0 to count - 1 do
        let addr = lo + (i * line_bytes) in
        T.store addr (i + 1);
        wb kind addr;
        for _r = 1 to redundant do
          wb kind addr
        done
      done;
      T.fence ())
    ()

(* == Sequential wrappers ================================================ *)

let run_one prep = match run_prepared [ prep ] with [ r ] -> r | _ -> assert false

let single_line ?params ~kind ~repeats () =
  run_one (prep_single_line ?params ~kind ~repeats ())

let writeback_sweep ?params ~kind ~threads ~sizes ~repeats () =
  run_one (prep_writeback_sweep ?params ~kind ~threads ~sizes ~repeats ())

let write_wb_read ?params ~kind ~threads ~sizes ~repeats () =
  run_one (prep_write_wb_read ?params ~kind ~threads ~sizes ~repeats ())

let contended_sweep ?params ~kind ~threads ~sizes ~repeats () =
  run_one (prep_contended_sweep ?params ~kind ~threads ~sizes ~repeats ())

let redundant ?params ~kind ~skip_it ~threads ~redundant ~sizes ~repeats () =
  run_one (prep_redundant ?params ~kind ~skip_it ~threads ~redundant ~sizes ~repeats ())
