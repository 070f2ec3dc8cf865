module S = Skipit_core.System
module Params = Skipit_cache.Params
module Dcache = Skipit_l1.Dcache
module L2 = Skipit_l2.Inclusive_cache
module Directory = Skipit_l2.Directory
module Memside = Skipit_l2.Memside_cache
module PL = Skipit_mem.Persist_log

type t = {
  sys : S.t;
  (* line base -> persist-event count for that line at the last observation
     that saw it dirty.  A line leaving the set must either have persisted
     since (count grew) or match NVMM word-for-word (discarded). *)
  mutable tracked : (int, int) Hashtbl.t;
  mutable rev_failures : Invariant.violation list;
}

let create sys = { sys; tracked = Hashtbl.create 64; rev_failures = [] }

let persist_count t addr = PL.persist_count (S.persist_log t.sys) ~addr

let dirty_lines t =
  let acc = Hashtbl.create 64 in
  let note addr = Hashtbl.replace acc addr () in
  for core = 0 to S.n_cores t.sys - 1 do
    let dc = S.dcache t.sys core in
    List.iter
      (fun (addr, _) ->
        match Dcache.line_state dc addr with
        | Some line when line.Dcache.dirty -> note addr
        | Some _ | None -> ())
      (Dcache.held_lines dc)
  done;
  L2.iter_lines (S.l2 t.sys) (fun addr dir -> if dir.Directory.dirty then note addr);
  (match S.l3 t.sys with
   | Some l3 -> Memside.iter_lines l3 (fun addr ~dirty ~data:_ -> if dirty then note addr)
   | None -> ());
  acc

let matches_nvmm t addr =
  let words = Params.line_bytes (S.params t.sys) / 8 in
  let rec scan w =
    w >= words
    ||
    let a = addr + (w * 8) in
    S.peek_word t.sys a = S.persisted_word t.sys a && scan (w + 1)
  in
  scan 0

let conservation_step t =
  let now_dirty = dirty_lines t in
  let out = ref [] in
  (* Lines that left the dirty set: demand a persist or an NVMM match. *)
  Hashtbl.filter_map_inplace
    (fun addr seen_count ->
      if Hashtbl.mem now_dirty addr then Some seen_count
      else begin
        if persist_count t addr <= seen_count && not (matches_nvmm t addr) then
          out :=
            {
              Invariant.rule = "dirty-conservation";
              addr = Some addr;
              detail =
                Printf.sprintf
                  "line was dirty, is now clean everywhere, has no new persist event and \
                   differs from NVMM";
            }
            :: !out;
        None
      end)
    t.tracked;
  (* (Re)track everything currently dirty at the current persist count. *)
  Hashtbl.iter (fun addr () -> Hashtbl.replace t.tracked addr (persist_count t addr)) now_dirty;
  List.rev !out

let observe t =
  let fresh = Invariant.check_all t.sys @ conservation_step t in
  t.rev_failures <- List.rev_append fresh t.rev_failures;
  fresh

let attach t ~every = S.set_audit_hook t.sys ~every (fun _ -> ignore (observe t))
let detach t = S.clear_audit_hook t.sys
let note_crash t = Hashtbl.reset t.tracked

(* [Hashtbl.copy] keeps the bucket layout, so the copy iterates, and
   reports violations, in [src]'s order. *)
let copy_into ~src ~dst =
  dst.tracked <- Hashtbl.copy src.tracked;
  dst.rev_failures <- src.rev_failures
let failures t = List.rev t.rev_failures
