(* The structural audit and the dirty-line conservation step as they
   were before the audit walked cache slots directly: every held line as
   a snapshot copy, each word read back through [peek_word], the persist
   log enumerated as a list.  Kept as the oracle that [Invariant.check_all]
   and [Auditor.observe] must match violation for violation, in order. *)

module S = Skipit_core.System
module Params = Skipit_cache.Params
module Dcache = Skipit_l1.Dcache
module Flush_unit = Skipit_l1.Flush_unit
module L2 = Skipit_l2.Inclusive_cache
module Directory = Skipit_l2.Directory
module Memside = Skipit_l2.Memside_cache
module Dram = Skipit_mem.Dram
module PL = Skipit_mem.Persist_log
module Resource = Skipit_sim.Resource
module Perm = Skipit_tilelink.Perm
module Port = Skipit_tilelink.Port
module Invariant = Skipit_audit.Invariant

(* ------------------------------------------------------------------ *)
(* Invariant.check_all                                                *)

type ctx = {
  sys : S.t;
  words : int;  (* words per line *)
  mutable out : Invariant.violation list;  (* collected in reverse *)
}

let fail ctx ?addr rule fmt =
  Printf.ksprintf (fun detail -> ctx.out <- { Invariant.rule; addr; detail } :: ctx.out) fmt

let words_per_line sys = Params.line_bytes (S.params sys) / 8

(* Word-granular compare of a cached line against a reference read
   function; returns the first differing word offset. *)
let first_diff ctx ~base ~data read_ref =
  let rec scan w =
    if w >= ctx.words then None
    else begin
      let reference = read_ref (base + (w * 8)) in
      if data.(w) <> reference then Some (w, data.(w), reference) else scan (w + 1)
    end
  in
  scan 0

(* Every L1 copy present in the L2 directory with matching permissions
   (§3.4 inclusion), at most one Trunk/dirty copy, skip-bit safety and the
   durability strengthening, and clean-copy value agreement with the L2. *)
let check_l1_lines ctx =
  let sys = ctx.sys in
  let l2 = S.l2 sys in
  let n = S.n_cores sys in
  for core = 0 to n - 1 do
    let dc = S.dcache sys core in
    List.iter
      (fun (addr, perm) ->
        (* Inclusion + directory agreement. *)
        if not (L2.present l2 addr) then
          fail ctx ~addr "inclusion" "held by core %d (%s) but absent from L2" core
            (Perm.to_string perm)
        else begin
          let dperm = L2.owner_perm l2 ~core ~addr in
          if not (Perm.equal dperm perm) then
            fail ctx ~addr "inclusion" "core %d holds %s but directory says %s" core
              (Perm.to_string perm) (Perm.to_string dperm)
        end;
        match Dcache.line_state dc addr with
        | None -> ()
        | Some line ->
          (* Single writer / dirty requires Trunk. *)
          if Perm.equal line.Dcache.perm Perm.Trunk then
            for other = 0 to n - 1 do
              if other <> core && Dcache.line_state (S.dcache sys other) addr <> None then
                fail ctx ~addr "single-writer" "Trunk on core %d but core %d holds a copy"
                  core other
            done;
          if line.Dcache.dirty && not (Perm.equal line.Dcache.perm Perm.Trunk) then
            fail ctx ~addr "single-writer" "dirty without Trunk on core %d" core;
          if not line.Dcache.dirty then begin
            if line.Dcache.skip then begin
              (* §6.2 safety: valid ∧ ¬dirty ∧ skip ⇒ L2 copy not dirty. *)
              if L2.dir_dirty l2 addr then
                fail ctx ~addr "skip-safety" "skip set on core %d but L2 copy is dirty" core;
              (* Strengthening: the skip bit claims "already persisted", so
                 the clean copy must equal the persistence domain. *)
              match first_diff ctx ~base:addr ~data:line.Dcache.data (S.persisted_word sys) with
              | Some (w, got, want) ->
                fail ctx ~addr "skip-durability"
                  "skip set on core %d but word %d differs from NVMM (%#x vs %#x)" core w
                  got want
              | None -> ()
            end;
            (* Clean copies agree with the L2 directory data. *)
            match
              first_diff ctx ~base:addr ~data:line.Dcache.data (L2.peek_word l2)
            with
            | Some (w, got, want) ->
              fail ctx ~addr "value-coherence"
                "clean L1 copy on core %d: word %d is %#x but L2 has %#x" core w got want
            | None -> ()
          end)
      (Dcache.held_lines dc)
  done

(* Per L2 line: a Trunk grant in the directory excludes every other
   owner; a clean L2 line agrees with the level below it.  Then a clean L3
   line agrees with DRAM. *)
let check_lower_levels ctx =
  let sys = ctx.sys in
  let l2 = S.l2 sys in
  let backend = L2.backend l2 in
  let n = S.n_cores sys in
  L2.iter_lines l2 (fun addr dir ->
    let owners =
      List.filter
        (fun core -> not (Perm.equal (L2.owner_perm l2 ~core ~addr) Perm.Nothing))
        (List.init n Fun.id)
    in
    List.iter
      (fun core ->
        if Perm.equal (L2.owner_perm l2 ~core ~addr) Perm.Trunk then
          List.iter
            (fun other ->
              if other <> core then
                fail ctx ~addr "single-writer"
                  "directory: Trunk on core %d but core %d owns it too" core other)
            owners)
      owners;
    if not dir.Directory.dirty then
      match
        first_diff ctx ~base:addr ~data:dir.Directory.data
          (Port.Memside.peek_word backend)
      with
      | Some (w, got, want) ->
        fail ctx ~addr "value-coherence" "clean L2 line: word %d is %#x but below has %#x" w
          got want
      | None -> ());
  match S.l3 sys with
  | None -> ()
  | Some l3 ->
    Memside.iter_lines l3 (fun addr ~dirty ~data ->
      if not dirty then
        match first_diff ctx ~base:addr ~data (S.persisted_word sys) with
        | Some (w, got, want) ->
          fail ctx ~addr "value-coherence" "clean L3 line: word %d is %#x but NVMM has %#x"
            w got want
        | None -> ())

(* §4 observability: the log is an ordered record — sequence numbers dense
   and ascending from zero, times non-negative. *)
let check_persist_log ctx =
  let log = S.persist_log ctx.sys in
  let expected = ref 0 in
  List.iter
    (fun (e : PL.event) ->
      if e.PL.seq <> !expected then
        fail ctx ~addr:e.PL.addr "persist-log" "sequence %d where %d expected" e.PL.seq
          !expected;
      if e.PL.time < 0 then
        fail ctx ~addr:e.PL.addr "persist-log" "negative persist time %d (seq %d)" e.PL.time
          e.PL.seq;
      expected := e.PL.seq + 1)
    (PL.events log);
  if PL.length log <> !expected then
    fail ctx "persist-log" "length %d but %d events enumerated" (PL.length log) !expected

(* Occupancy conservation at quiesce: past every resource's busy horizon no
   FSHR pendings, flush-queue admissions or ListBuffer admissions remain.
   This is what catches units leaked across a crash. *)
let check_conservation ctx =
  let sys = ctx.sys in
  let l2 = S.l2 sys in
  let horizon = ref (S.max_clock sys) in
  let widen r = horizon := max !horizon (Resource.all_free_at r) in
  for core = 0 to S.n_cores sys - 1 do
    let dc = S.dcache sys core in
    widen (Dcache.mshrs dc);
    widen (Dcache.wbu dc);
    widen (Flush_unit.fshrs (Dcache.flush_unit dc))
  done;
  Array.iter widen (L2.mshr_files l2);
  widen (Dram.channels (S.dram sys));
  let h = !horizon in
  for core = 0 to S.n_cores sys - 1 do
    let fu = Dcache.flush_unit (S.dcache sys core) in
    let pending = Flush_unit.outstanding fu ~now:h in
    if pending <> 0 then
      fail ctx "conservation" "core %d: %d FSHR pending(s) survive the busy horizon (%d)"
        core pending h;
    let q = Flush_unit.queue_occupants fu in
    if q <> 0 then
      fail ctx "conservation" "core %d: %d flush-queue admission(s) never released" core q
  done;
  let lb = L2.list_buffer_occupants l2 in
  if lb <> 0 then fail ctx "conservation" "L2 ListBuffer: %d admission(s) never released" lb

let check_all ?(quiesced = false) sys =
  let ctx = { sys; words = words_per_line sys; out = [] } in
  check_l1_lines ctx;
  check_lower_levels ctx;
  check_persist_log ctx;
  if quiesced then check_conservation ctx;
  List.rev ctx.out

(* ------------------------------------------------------------------ *)
(* Auditor.observe                                                    *)

type t = {
  sys : S.t;
  (* line base -> persist-event count for that line at the last observation
     that saw it dirty.  A line leaving the set must either have persisted
     since (count grew) or match NVMM word-for-word (discarded). *)
  tracked : (int, int) Hashtbl.t;
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
  let fresh = check_all t.sys @ conservation_step t in
  t.rev_failures <- List.rev_append fresh t.rev_failures;
  fresh

let note_crash t = Hashtbl.reset t.tracked
