module Int_tbl = Skipit_sim.Int_tbl

type event = { addr : int; time : int; seq : int }

type t = {
  mutable rev_events : event list;
  mutable next_seq : int;
  counts : Int_tbl.t;  (* line base -> events for that line *)
}

let create () = { rev_events = []; next_seq = 0; counts = Int_tbl.create ~size_hint:16 () }

let line_base addr = addr land lnot 63
let count_line t base = Int_tbl.find_default t.counts base ~default:0

let record t ~addr ~time =
  let base = line_base addr in
  t.rev_events <- { addr = base; time; seq = t.next_seq } :: t.rev_events;
  t.next_seq <- t.next_seq + 1;
  Int_tbl.replace t.counts base (count_line t base + 1)

let events t = List.rev t.rev_events

let persists_of t ~addr =
  let base = line_base addr in
  List.filter (fun e -> e.addr = base) (events t)

let persist_count t ~addr = count_line t (line_base addr)

let first_persist_time t addr =
  match persists_of t ~addr with [] -> None | e :: _ -> Some e.time

let last_persist_time t addr =
  match List.rev (persists_of t ~addr) with [] -> None | e :: _ -> Some e.time

type order =
  | Before
  | Not_before
  | Never_persisted of { a : bool; b : bool }

let persisted_before t a b =
  match last_persist_time t a, first_persist_time t b with
  | Some ta, Some tb -> if ta <= tb then Before else Not_before
  | la, lb ->
    Never_persisted { a = Option.is_some la; b = Option.is_some lb }

let clear t =
  t.rev_events <- [];
  t.next_seq <- 0;
  Int_tbl.clear t.counts

let length t = List.length t.rev_events

(* Events are immutable: the copy shares them. *)
let copy_into ~src ~dst =
  dst.rev_events <- src.rev_events;
  dst.next_seq <- src.next_seq;
  Int_tbl.copy_into ~src:src.counts ~dst:dst.counts
