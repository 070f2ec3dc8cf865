module S = Skipit_core.System
module Params = Skipit_cache.Params
module Dcache = Skipit_l1.Dcache
module L2 = Skipit_l2.Inclusive_cache
module Directory = Skipit_l2.Directory
module Memside = Skipit_l2.Memside_cache
module PL = Skipit_mem.Persist_log

(* Int keys without the polymorphic compare.  [Hashtbl.hash] is the
   generic table's hash, so buckets, and with them the order [tracked] is
   visited and violations are reported in, are the generic table's. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  sys : S.t;
  (* line base -> persist-event count for that line at the last observation
     that saw it dirty.  A line leaving the set must either have persisted
     since (count grew) or match NVMM word-for-word (discarded). *)
  mutable tracked : int Tbl.t;
  (* Scratch for one step's dirty set, empty between steps.  [Tbl.reset]
     restores the initial bucket count, so it iterates as a fresh table. *)
  now_dirty : unit Tbl.t;
  mutable rev_failures : Invariant.violation list;
  (* The schedule: [tick] observes once the maximum core clock reaches
     [next_due], [max_int] until [attach] arms it. *)
  mutable every : int;
  mutable next_due : int;
}

let create sys =
  { sys; tracked = Tbl.create 64; now_dirty = Tbl.create 64; rev_failures = []; every = 0;
    next_due = max_int }

let persist_count t addr = PL.persist_count (S.persist_log t.sys) ~addr

(* Every line dirty anywhere, read from slot metadata: each L1's valid
   slots in descending id order, then the L2's and the L3's lines. *)
let gather_dirty t =
  let acc = t.now_dirty in
  for core = 0 to S.n_cores t.sys - 1 do
    let dc = S.dcache t.sys core in
    for id = Dcache.slots dc - 1 downto 0 do
      if Dcache.slot_valid dc id && Dcache.slot_dirty dc id then
        Tbl.replace acc (Dcache.slot_addr dc id) ()
    done
  done;
  L2.iter_lines (S.l2 t.sys) (fun addr dir -> if dir.Directory.dirty then Tbl.replace acc addr ());
  match S.l3 t.sys with
  | Some l3 -> Memside.iter_lines l3 (fun addr ~dirty ~data:_ -> if dirty then Tbl.replace acc addr ())
  | None -> ()

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
  gather_dirty t;
  let now_dirty = t.now_dirty in
  let out = ref [] in
  (* Lines that left the dirty set: demand a persist or an NVMM match.
     Both walks visit every bucket, so empty tables are skipped. *)
  if Tbl.length t.tracked > 0 then
    Tbl.filter_map_inplace
      (fun addr seen_count ->
        if Tbl.mem now_dirty addr then Some seen_count
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
  if Tbl.length now_dirty > 0 then begin
    Tbl.iter (fun addr () -> Tbl.replace t.tracked addr (persist_count t addr)) now_dirty;
    Tbl.reset now_dirty
  end;
  List.rev !out

let observe t =
  let fresh = Invariant.check_all t.sys @ conservation_step t in
  t.rev_failures <- List.rev_append fresh t.rev_failures;
  fresh

let attach t ~every =
  if every <= 0 then invalid_arg "Auditor.attach: every must be positive";
  t.every <- every;
  t.next_due <- S.max_clock t.sys + every

(* Catch up in one observation even if the clock jumped several periods. *)
let tick t =
  let now = S.max_clock t.sys in
  if now >= t.next_due then begin
    t.next_due <- now + t.every;
    ignore (observe t)
  end

let note_crash t = Tbl.reset t.tracked

(* [Tbl.copy] keeps the bucket layout, so the copy iterates, and reports
   violations, in [src]'s order. *)
let copy_into ~src ~dst =
  dst.tracked <- Tbl.copy src.tracked;
  dst.rev_failures <- src.rev_failures;
  dst.every <- src.every;
  dst.next_due <- src.next_due

let failures t = List.rev t.rev_failures
