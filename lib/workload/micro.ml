module S = Skipit_core.System
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
open Skipit_tilelink

let sizes_default =
  let rec up n acc = if n > 32 * 1024 then List.rev acc else up (n * 2) (n :: acc) in
  up 64 []

let line_bytes = 64

type kernel =
  | Writeback of Message.wb_kind
  | Contended of Message.wb_kind
  | Write_wb_read of Message.wb_kind
  | Redundant of Message.wb_kind * int

let wb kind addr =
  match kind with Message.Wb_clean -> T.clean addr | Message.Wb_flush -> T.flush addr

(* Carve a [size]-byte region into per-thread shares of whole lines, as
   [(first line, line count)] per task.  With fewer lines than threads,
   only the first [lines] threads work. *)
let shares ~threads ~size =
  let lines = size / line_bytes in
  let per = max 1 (lines / threads) in
  List.init threads (fun i ->
    let first = i * per in
    let count = if i = threads - 1 then lines - first else per in
    first, max 0 count)
  |> List.filter (fun (_, count) -> count > 0)

(* The contended split: every thread gets the whole region. *)
let whole ~threads ~size = List.init threads (fun _ -> 0, size / line_bytes)

let dirty_lines ~lo ~count =
  for i = 0 to count - 1 do
    T.store (lo + (i * line_bytes)) (i + 1)
  done

(* Write back every line once, then fence. *)
let write_back kind ~lo ~count =
  for i = 0 to count - 1 do
    wb kind (lo + (i * line_bytes))
  done;
  T.fence ()

(* Untimed per-task setup, before the fence that opens the window. *)
let setup kernel ~core ~lo ~count =
  match kernel with
  | Writeback _ -> dirty_lines ~lo ~count
  | Contended _ -> if core = 0 then dirty_lines ~lo ~count
  | Write_wb_read _ | Redundant _ -> ()

(* The timed part of one task. *)
let measure kernel ~lo ~count =
  match kernel with
  | Writeback kind | Contended kind -> write_back kind ~lo ~count
  | Write_wb_read kind ->
    dirty_lines ~lo ~count;
    for _pass = 1 to 10 do
      for i = 0 to count - 1 do
        wb kind (lo + (i * line_bytes))
      done
    done;
    T.fence ();
    for i = 0 to count - 1 do
      ignore (T.load (lo + (i * line_bytes)))
    done
  | Redundant (kind, redundant) ->
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
    T.fence ()

(* Task [core] gets the [core]th region and runs [setup], a fence, then
   [measure]; the elapsed time is (latest measure end) − (earliest measure
   start).  Repetition [rep] shifts the region by a different line offset
   so set mapping varies, mimicking the paper's run-to-run variance. *)
let run params kernel ~threads ~size ~rep =
  let offset = rep * line_bytes * 7 in
  let sys = S.create (Params.with_cores params threads) in
  let base =
    Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line_bytes (size + offset) + offset
  in
  let regions = match kernel with Contended _ -> whole | _ -> shares in
  let starts = Array.make threads max_int in
  let ends = Array.make threads 0 in
  let tasks =
    regions ~threads ~size
    |> List.mapi (fun core (first, count) ->
         {
           T.core;
           body =
             (fun () ->
               let lo = base + (first * line_bytes) in
               setup kernel ~core ~lo ~count;
               T.fence ();
               starts.(core) <- T.now ();
               measure kernel ~lo ~count;
               ends.(core) <- T.now ());
         })
  in
  ignore (T.run sys tasks);
  let t0 = Array.fold_left min max_int starts in
  let t1 = Array.fold_left max 0 ends in
  t1 - t0
