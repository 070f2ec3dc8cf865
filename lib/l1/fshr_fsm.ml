open Skipit_tilelink

type state =
  | Invalid
  | Meta_write
  | Fill_buffer
  | Root_release_data
  | Root_release
  | Root_release_ack

let pp_state ppf s =
  Format.pp_print_string ppf
    (match s with
     | Invalid -> "invalid"
     | Meta_write -> "meta_write"
     | Fill_buffer -> "fill_buffer"
     | Root_release_data -> "root_release_data"
     | Root_release -> "root_release"
     | Root_release_ack -> "root_release_ack")

let equal_state (a : state) (b : state) = a = b

type plan = { hit : bool; dirty : bool; kind : Message.wb_kind }

(* The eight plans, built once. *)
let plans =
  Array.init 8 (fun i ->
    { hit = i land 4 <> 0; dirty = i land 2 <> 0;
      kind = (if i land 1 <> 0 then Message.Wb_flush else Message.Wb_clean) })

let plan ~hit ~dirty ~kind =
  plans.((Bool.to_int hit lsl 2) lor (Bool.to_int dirty lsl 1)
         lor (match kind with Message.Wb_flush -> 1 | Message.Wb_clean -> 0))

type meta_effect = No_meta_change | Invalidate_line | Clear_dirty

let meta_effect plan =
  if not plan.hit then No_meta_change
  else
    match plan.kind with
    | Message.Wb_flush -> Invalidate_line
    | Message.Wb_clean -> if plan.dirty then Clear_dirty else No_meta_change

let sends_data plan = plan.hit && plan.dirty

let needs_meta plan = meta_effect plan <> No_meta_change

let release_state plan = if sends_data plan then Root_release_data else Root_release

let first_state plan =
  if needs_meta plan then Meta_write
  else if sends_data plan then Fill_buffer
  else release_state plan

let next plan = function
  | Invalid -> invalid_arg "Fshr_fsm.next: use first_state from Invalid"
  | Meta_write -> if sends_data plan then Fill_buffer else release_state plan
  | Fill_buffer -> release_state plan
  | Root_release_data | Root_release -> Root_release_ack
  | Root_release_ack -> Invalid

let path plan =
  let rec walk s acc =
    match s with
    | Root_release_ack -> List.rev (Root_release_ack :: acc)
    | s -> walk (next plan s) (s :: acc)
  in
  walk (first_state plan) []

let state_cycles state ~meta_cycles ~fill_cycles ~data_beats =
  match state with
  | Invalid -> 0
  | Meta_write -> meta_cycles
  | Fill_buffer -> fill_cycles
  | Root_release_data -> data_beats
  | Root_release -> 1
  | Root_release_ack -> 0
