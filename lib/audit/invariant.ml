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

type violation = { rule : string; addr : int option; detail : string }

let pp_violation ppf v =
  match v.addr with
  | Some a -> Format.fprintf ppf "[%s] line %#x: %s" v.rule a v.detail
  | None -> Format.fprintf ppf "[%s] %s" v.rule v.detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

let make ~rule ?addr detail = { rule; addr; detail }

(* ------------------------------------------------------------------ *)

(* One check costs a walk over the cached lines: every L1 slot is read in
   place, with one directory lookup per line, and every word comparison
   reads its two sides directly — no snapshot records, no per-word lookup
   through the hierarchy. *)
type ctx = {
  sys : S.t;
  l2 : L2.t;
  dram : Dram.t;
  words : int;  (* words per line *)
  mutable out : violation list;  (* collected in reverse *)
}

let fail ctx ?addr rule fmt =
  Printf.ksprintf (fun detail -> ctx.out <- { rule; addr; detail } :: ctx.out) fmt

let words_per_line sys = Params.line_bytes (S.params sys) / 8

(* A line's reference copy: the words of a cache level ([Some data]) or
   NVMM ([None]). *)
let ref_word ctx ref_ ~base w =
  match ref_ with Some data -> data.(w) | None -> Dram.peek_word ctx.dram (base + (w * 8))

(* First word offset where an L1 slot's line, or a line's words, differ
   from the reference copy; -1 if none does. *)
let rec diff_slot ctx dc id ref_ ~base w =
  if w >= ctx.words then -1
  else if Dcache.slot_word dc id w <> ref_word ctx ref_ ~base w then w
  else diff_slot ctx dc id ref_ ~base (w + 1)

let rec diff_data ctx data ref_ ~base w =
  if w >= ctx.words then -1
  else if data.(w) <> ref_word ctx ref_ ~base w then w
  else diff_data ctx data ref_ ~base (w + 1)

(* What the L2 reads from below for [base]'s line: the L3's copy if it
   holds one, else NVMM. *)
let below_l2 ctx base =
  match S.l3 ctx.sys with None -> None | Some l3 -> Memside.find_data l3 base

(* Every L1 copy present in the L2 directory with matching permissions
   (§3.4 inclusion), at most one Trunk/dirty copy, skip-bit safety and the
   durability strengthening, and clean-copy value agreement with the L2.
   Slots are visited in descending id order per core. *)
let check_l1_line ctx ~core dc id =
  let n = S.n_cores ctx.sys in
  let addr = Dcache.slot_addr dc id in
  let perm = Dcache.slot_perm dc id in
  let dir = L2.find_dir ctx.l2 addr in
  (* Inclusion + directory agreement. *)
  (match dir with
   | None ->
     fail ctx ~addr "inclusion" "held by core %d (%s) but absent from L2" core
       (Perm.to_string perm)
   | Some d ->
     let dperm = Directory.owner_perm d core in
     if not (Perm.equal dperm perm) then
       fail ctx ~addr "inclusion" "core %d holds %s but directory says %s" core
         (Perm.to_string perm) (Perm.to_string dperm));
  (* Single writer / dirty requires Trunk. *)
  if Perm.equal perm Perm.Trunk then
    for other = 0 to n - 1 do
      if other <> core && Dcache.find_slot (S.dcache ctx.sys other) addr >= 0 then
        fail ctx ~addr "single-writer" "Trunk on core %d but core %d holds a copy" core other
    done;
  let dirty = Dcache.slot_dirty dc id in
  if dirty && not (Perm.equal perm Perm.Trunk) then
    fail ctx ~addr "single-writer" "dirty without Trunk on core %d" core;
  if not dirty then begin
    if Dcache.slot_skip dc id then begin
      (* §6.2 safety: valid ∧ ¬dirty ∧ skip ⇒ L2 copy not dirty. *)
      (match dir with
       | Some d when d.Directory.dirty ->
         fail ctx ~addr "skip-safety" "skip set on core %d but L2 copy is dirty" core
       | Some _ | None -> ());
      (* Strengthening: the skip bit claims "already persisted", so the
         clean copy must equal the persistence domain. *)
      let w = diff_slot ctx dc id None ~base:addr 0 in
      if w >= 0 then
        fail ctx ~addr "skip-durability"
          "skip set on core %d but word %d differs from NVMM (%#x vs %#x)" core w
          (Dcache.slot_word dc id w)
          (ref_word ctx None ~base:addr w)
    end;
    (* Clean copies agree with the L2 directory data (or, for a line the
       L2 lacks, with what the L2 reads from below). *)
    let ref_ = match dir with Some d -> Some d.Directory.data | None -> below_l2 ctx addr in
    let w = diff_slot ctx dc id ref_ ~base:addr 0 in
    if w >= 0 then
      fail ctx ~addr "value-coherence" "clean L1 copy on core %d: word %d is %#x but L2 has %#x"
        core w (Dcache.slot_word dc id w) (ref_word ctx ref_ ~base:addr w)
  end

let check_l1_lines ctx =
  for core = 0 to S.n_cores ctx.sys - 1 do
    let dc = S.dcache ctx.sys core in
    for id = Dcache.slots dc - 1 downto 0 do
      if Dcache.slot_valid dc id then check_l1_line ctx ~core dc id
    done
  done

(* The directory's side of single-writer (a Trunk grant excludes every
   other owner, cached or not); a clean L2 line agrees with the level
   below it; a clean L3 line agrees with DRAM.  Catches an
   elided-but-needed writeback the moment metadata claims cleanliness. *)
let check_lower_levels ctx =
  let n = S.n_cores ctx.sys in
  L2.iter_lines ctx.l2 (fun addr dir ->
    for core = 0 to n - 1 do
      if Perm.equal (Directory.owner_perm dir core) Perm.Trunk then
        for other = 0 to n - 1 do
          if other <> core && not (Perm.equal (Directory.owner_perm dir other) Perm.Nothing) then
            fail ctx ~addr "single-writer" "directory: Trunk on core %d but core %d owns it too"
              core other
        done
    done;
    if not dir.Directory.dirty then begin
      let data = dir.Directory.data and below = below_l2 ctx addr in
      let w = diff_data ctx data below ~base:addr 0 in
      if w >= 0 then
        fail ctx ~addr "value-coherence" "clean L2 line: word %d is %#x but below has %#x" w
          data.(w) (ref_word ctx below ~base:addr w)
    end);
  match S.l3 ctx.sys with
  | None -> ()
  | Some l3 ->
    Memside.iter_lines l3 (fun addr ~dirty ~data ->
      if not dirty then begin
        let w = diff_data ctx data None ~base:addr 0 in
        if w >= 0 then
          fail ctx ~addr "value-coherence" "clean L3 line: word %d is %#x but NVMM has %#x" w
            data.(w) (ref_word ctx None ~base:addr w)
      end)

(* §4 observability: the log is an ordered record — sequence numbers dense
   and ascending from zero, times non-negative. *)
let check_persist_log ctx =
  let log = S.persist_log ctx.sys in
  let expected = ref 0 in
  let n = PL.length log in
  for i = 0 to n - 1 do
    let seq = PL.seq_at log i in
    if seq <> !expected then
      fail ctx ~addr:(PL.addr_at log i) "persist-log" "sequence %d where %d expected" seq
        !expected;
    if PL.time_at log i < 0 then
      fail ctx ~addr:(PL.addr_at log i) "persist-log" "negative persist time %d (seq %d)"
        (PL.time_at log i) seq;
    expected := seq + 1
  done;
  if n <> !expected then fail ctx "persist-log" "length %d but %d events enumerated" n !expected

(* Occupancy conservation at quiesce: past every resource's busy horizon no
   FSHR pendings, flush-queue admissions or ListBuffer admissions remain.
   This is what catches units leaked across a crash (satellite: crash must
   reset Resource occupancy and flush-queue state cleanly). *)
let check_conservation ctx =
  let sys = ctx.sys in
  let l2 = S.l2 sys in
  let horizon = ref (S.max_clock sys) in
  let widen r = horizon := Int.max !horizon (Resource.all_free_at r) in
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
  let ctx = { sys; l2 = S.l2 sys; dram = S.dram sys; words = words_per_line sys; out = [] } in
  check_l1_lines ctx;
  check_lower_levels ctx;
  check_persist_log ctx;
  if quiesced then check_conservation ctx;
  List.rev ctx.out
