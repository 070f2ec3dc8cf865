module Instr = Skipit_cpu.Instr
module T = Skipit_core.Thread

type t = (int * Instr.t list) list

(* The most instructions a repeat block may unroll to, counting what its
   enclosing block already holds: past it a trace is an error, not an
   out-of-memory. *)
let max_unrolled = 1 lsl 20

let parse_int token =
  match int_of_string_opt token with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "not a number: %S" token)

let ( let* ) r f = Result.bind r f

(* Addresses, core ids, delays and repeat counts are never negative. *)
let parse_nat what token =
  let* v = parse_int token in
  if v < 0 then Error (Printf.sprintf "negative %s %d" what v) else Ok v

let parse_instr tokens =
  let addr = parse_nat "address" in
  match tokens with
  | [ "ld"; a ] ->
    let* addr = addr a in
    Ok (Instr.Load { addr })
  | [ "sd"; a; v ] ->
    let* addr = addr a in
    let* value = parse_int v in
    Ok (Instr.Store { addr; value })
  | [ "cas"; a; e; d ] ->
    let* addr = addr a in
    let* expected = parse_int e in
    let* desired = parse_int d in
    Ok (Instr.Cas { addr; expected; desired })
  | [ "cbo.clean"; a ] ->
    let* addr = addr a in
    Ok (Instr.Cbo_clean { addr })
  | [ "cbo.flush"; a ] ->
    let* addr = addr a in
    Ok (Instr.Cbo_flush { addr })
  | [ "cbo.inval"; a ] ->
    let* addr = addr a in
    Ok (Instr.Cbo_inval { addr })
  | [ "cbo.zero"; a ] ->
    let* addr = addr a in
    Ok (Instr.Cbo_zero { addr })
  | [ "fence" ] -> Ok Instr.Fence
  | [ "delay"; n ] ->
    let* n = parse_nat "delay" n in
    Ok (Instr.Delay n)
  | [] -> Error "empty instruction"
  | op :: _ -> Error (Printf.sprintf "unknown instruction %S" op)

(* Add [d] to the address an instruction touches. *)
let shift d (instr : Instr.t) : Instr.t =
  match instr with
  | Load { addr } -> Load { addr = addr + d }
  | Store { addr; value } -> Store { addr = addr + d; value }
  | Cas { addr; expected; desired } -> Cas { addr = addr + d; expected; desired }
  | Cbo_clean { addr } -> Cbo_clean { addr = addr + d }
  | Cbo_flush { addr } -> Cbo_flush { addr = addr + d }
  | Cbo_inval { addr } -> Cbo_inval { addr = addr + d }
  | Cbo_zero { addr } -> Cbo_zero { addr = addr + d }
  | Fence | Delay _ -> instr

(* Iteration k of [repeat n step s] shifts [body] by k*s.  Every address
   moves monotonically in k, so the last iteration bounds them all: it
   must neither go below zero nor overflow. *)
let step_in_range ~n ~step body =
  n <= 1 || step = 0
  || begin
    let bound = max_int / (n - 1) in
    step <= bound && step >= -bound
    && begin
      let d = (n - 1) * step in
      List.for_all
        (fun i ->
          match Instr.touches i with
          | None -> true
          | Some a -> if d > 0 then a <= max_int - d else a + d >= 0)
        body
    end
  end

(* An open block: a core section, or a repeat block with its count, its
   address step and the line that opened it.  [body] holds the block's
   instructions so far in reverse, [len] their number. *)
type block = Core of int | Repeat of { line : int; n : int; step : int }
type frame = { block : block; body : Instr.t list; len : int }

let open_block block = { block; body = []; len = 0 }

let parse source =
  let lines = String.split_on_char '\n' source in
  (* The stack holds the current core section under any open repeat
     blocks, innermost first. *)
  let finish_core streams core body = (core, List.rev body) :: streams in
  let rec go lineno lines streams stack =
    match lines with
    | [] -> (
      match stack with
      | [] -> Ok (List.rev streams)
      | [ { block = Core core; body; _ } ] -> Ok (List.rev (finish_core streams core body))
      | { block = Repeat { line; _ }; _ } :: _ ->
        Error (Printf.sprintf "line %d: unterminated repeat block" line)
      | _ -> Error "unterminated repeat block")
    | line :: rest -> (
      let next = go (lineno + 1) rest in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let tokens =
        String.split_on_char ' ' (String.trim line)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      let fail_at lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
      let fail = fail_at lineno in
      let or_fail = function Ok v -> Ok v | Error e -> fail e in
      match tokens, stack with
      | [], _ -> next streams stack
      | [ "core"; n ], ([] | [ { block = Core _; _ } ]) ->
        let* core = or_fail (parse_nat "core" n) in
        let streams =
          match stack with
          | [ { block = Core c; body; _ } ] -> finish_core streams c body
          | _ -> streams
        in
        next streams [ open_block (Core core) ]
      | [ "core"; _ ], _ -> fail "core section inside a repeat block"
      | _, [] -> fail "instruction outside any core section"
      | "repeat" :: n :: step_clause, _ ->
        let* n = or_fail (parse_nat "repeat count" n) in
        let* step =
          match step_clause with
          | [] -> Ok 0
          | [ "step"; s ] -> or_fail (parse_int s)
          | _ -> fail "expected repeat N [step S]"
        in
        next streams (open_block (Repeat { line = lineno; n; step }) :: stack)
      | [ "end" ], { block = Repeat { line; n; step }; body; len } :: parent :: deeper ->
        let body = List.rev body in
        if not (step_in_range ~n ~step body) then
          fail_at line
            (Printf.sprintf "step %d drives an address %s" step
               (if step < 0 then "below zero" else "past max_int"))
        else if len > 0 && n > (max_unrolled - parent.len) / len then
          fail_at line (Printf.sprintf "repeat unrolls past %d instructions" max_unrolled)
        else begin
          let body_at k = if step = 0 then body else List.map (shift (k * step)) body in
          let unrolled = List.concat (List.init (if len = 0 then 0 else n) body_at) in
          let parent =
            { parent with
              body = List.rev_append unrolled parent.body;
              len = parent.len + (n * len) }
          in
          next streams (parent :: deeper)
        end
      | [ "end" ], _ -> fail "end without repeat"
      | tokens, frame :: deeper ->
        let* instr = or_fail (parse_instr tokens) in
        next streams ({ frame with body = instr :: frame.body; len = frame.len + 1 } :: deeper))
  in
  let* streams = go 1 lines [] [] in
  let cores = List.map fst streams in
  if List.length (List.sort_uniq compare cores) <> List.length cores then
    Error "duplicate core section"
  else Ok (List.sort (fun (a, _) (b, _) -> compare a b) streams)
let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> parse source
  | exception Sys_error e -> Error e

let max_core t = List.fold_left (fun acc (core, _) -> max acc core) 0 t

let run sys t =
  let checksums = Array.make (Skipit_core.System.n_cores sys) 0 in
  let tasks =
    List.map
      (fun (core, instrs) ->
        {
          T.core;
          body =
            (fun () ->
              List.iter
                (fun instr ->
                  match instr with
                  | Instr.Load { addr } ->
                    checksums.(core) <- checksums.(core) lxor T.load addr
                  | Instr.Store { addr; value } -> T.store addr value
                  | Instr.Cas { addr; expected; desired } ->
                    ignore (T.cas addr ~expected ~desired)
                  | Instr.Cbo_clean { addr } -> T.clean addr
                  | Instr.Cbo_flush { addr } -> T.flush addr
                  | Instr.Cbo_inval { addr } -> T.inval addr
                  | Instr.Cbo_zero { addr } -> T.zero addr
                  | Instr.Fence -> T.fence ()
                  | Instr.Delay n -> T.delay n)
                instrs);
        })
      t
  in
  let cycles = T.run sys tasks in
  cycles, checksums

(* Render in the exact surface syntax [parse] accepts ([Instr.pp] uses an
   arrow for stores, which is for humans, not for round-tripping). *)
let pp_instr ppf = function
  | Instr.Load { addr } -> Format.fprintf ppf "ld %#x" addr
  | Instr.Store { addr; value } -> Format.fprintf ppf "sd %#x %d" addr value
  | Instr.Cas { addr; expected; desired } ->
    Format.fprintf ppf "cas %#x %d %d" addr expected desired
  | Instr.Cbo_clean { addr } -> Format.fprintf ppf "cbo.clean %#x" addr
  | Instr.Cbo_flush { addr } -> Format.fprintf ppf "cbo.flush %#x" addr
  | Instr.Cbo_inval { addr } -> Format.fprintf ppf "cbo.inval %#x" addr
  | Instr.Cbo_zero { addr } -> Format.fprintf ppf "cbo.zero %#x" addr
  | Instr.Fence -> Format.fprintf ppf "fence"
  | Instr.Delay n -> Format.fprintf ppf "delay %d" n

let pp ppf t =
  List.iter
    (fun (core, instrs) ->
      Format.fprintf ppf "core %d@," core;
      List.iter (fun i -> Format.fprintf ppf "  %a@," pp_instr i) instrs)
    t
