(* Exact gate over BENCH_results.json, plus declarative rules.

   Usage: bench_gate BASELINE FRESH RULES

   Both files are flattened to one value per path, e.g.
   workloads[fleet_kill1].stats.shed_milli or
   workloads[producer_consumer].checksums[1]: an array element that is an
   object with a "name" is addressed by that name, any other by its index.
   Every simulated field is deterministic, so every path must hold the
   same value in both files; each difference prints as
   `path: baseline → fresh (Δ)`.

   RULES (bench/gates) holds one rule per line, `PATH OP NUMBER` or
   `PATH OP NUMBER * PATH`, with OP one of == != < <= > >=, evaluated over
   FRESH; `#` starts a comment.  A path that is missing or not a number
   fails its rule.

   Exit status: 0 PASS, 1 on any drift or failed rule, 2 when an input
   cannot be read or parsed.  No external dependencies: the parser below
   reads the JSON the bench emits (objects, arrays, strings without
   escapes in keys, numbers, literals). *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench_gate: " ^ msg);
      exit 2)
    fmt

(* (path, raw scalar text) for every leaf, in document order; an empty
   object or array is a leaf of its own, "{}" or "[]". *)
let flatten file s =
  let n = String.length s and pos = ref 0 in
  let fail what = die "%s: %s at byte %d" file what !pos in
  let peek () =
    while !pos < n && String.contains " \t\r\n" s.[!pos] do incr pos done;
    if !pos < n then s.[!pos] else '\000'
  in
  let eat c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let scalar () =
    let quoted = peek () = '"' in
    let start = !pos in
    if quoted then begin
      incr pos;
      while !pos < n && s.[!pos] <> '"' do
        if s.[!pos] = '\\' then incr pos;
        incr pos
      done;
      eat '"'
    end
    else
      while !pos < n && not (String.contains " \t\r\n,:]}" s.[!pos]) do incr pos done;
    let tok = String.sub s start (!pos - start) in
    let literal = List.mem tok [ "true"; "false"; "null" ] in
    if not (quoted || literal || float_of_string_opt tok <> None) then fail "bad value";
    tok
  in
  let unquote v = String.sub v 1 (String.length v - 2) in
  let is_string v = String.length v >= 2 && v.[0] = '"' in
  let rec value () =
    match peek () with
    | '{' ->
      incr pos;
      items '}' (fun _ ->
        let k = scalar () in
        if not (is_string k) then fail "expected a key";
        eat ':';
        List.map (fun (p, v) -> ("." ^ unquote k ^ p, v)) (value ()))
    | '[' ->
      incr pos;
      items ']' (fun i ->
        let fields = value () in
        let label, fields =
          match List.assoc_opt ".name" fields with
          | Some v when is_string v -> unquote v, List.remove_assoc ".name" fields
          | _ -> string_of_int i, fields
        in
        List.map (fun (p, v) -> (Printf.sprintf "[%s]%s" label p, v)) fields)
    | _ -> [ "", scalar () ]
  and items close item =
    if peek () = close then begin
      incr pos;
      [ "", if close = '}' then "{}" else "[]" ]
    end
    else
      let rec go i acc =
        let acc = List.rev_append (item i) acc in
        match peek () with
        | ',' -> incr pos; go (i + 1) acc
        | c when c = close -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go 0 []
  in
  let leaves = value () in
  if peek () <> '\000' then fail "trailing data";
  (* Object members contribute ".key"; a document's top level has none. *)
  let strip p =
    if String.starts_with ~prefix:"." p then String.sub p 1 (String.length p - 1) else p
  in
  let leaves = List.map (fun (p, v) -> (strip p, v)) leaves in
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun (p, _) ->
      if Hashtbl.mem seen p then die "%s: duplicate path %s" file p;
      Hashtbl.add seen p ())
    leaves;
  leaves

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error e -> die "%s" e

let same a b =
  match float_of_string_opt a, float_of_string_opt b with
  | Some x, Some y -> x = y
  | _ -> a = b

let drift path base fresh =
  let show = Option.value ~default:"missing" in
  let delta =
    match Option.bind base float_of_string_opt, Option.bind fresh float_of_string_opt with
    | Some b, Some f -> Printf.sprintf " (%+.10g)" (f -. b)
    | _ -> ""
  in
  Printf.sprintf "%s: %s → %s%s" path (show base) (show fresh) delta

let drifts base fresh =
  let index l = Hashtbl.of_seq (List.to_seq l) in
  let b = index base and f = index fresh in
  List.filter_map
    (fun (p, v) ->
      match Hashtbl.find_opt f p with
      | Some w when same v w -> None
      | w -> Some (drift p (Some v) w))
    base
  @ List.filter_map
      (fun (p, w) -> if Hashtbl.mem b p then None else Some (drift p None (Some w)))
      fresh

(* The failure of one rule line over [fresh], or None when it holds. *)
let check_rule ~where fresh line =
  let number p =
    match List.assoc_opt p fresh with
    | None -> Error (p ^ " missing")
    | Some v -> (
      match float_of_string_opt v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%s is %s, not a number" p v))
  in
  let const c =
    match float_of_string_opt c with Some x -> x | None -> die "%s: bad number %S" where c
  in
  let holds = function
    | "==" -> ( = ) | "!=" -> ( <> ) | "<" -> ( < ) | "<=" -> ( <= )
    | ">" -> ( > ) | ">=" -> ( >= )
    | op -> die "%s: unknown operator %S" where op
  in
  let tokens = String.split_on_char ' ' line |> List.filter (( <> ) "") in
  let lhs, op, rhs =
    match tokens with
    | [ p; op; c ] -> p, op, Ok (const c)
    | [ p; op; c; "*"; q ] -> p, op, Result.map (fun y -> const c *. y) (number q)
    | _ -> die "%s: expected PATH OP NUMBER [* PATH]" where
  in
  let rule = String.concat " " tokens in
  match number lhs, rhs with
  | Ok x, Ok y when holds op x y -> None
  | Ok x, Ok y -> Some (Printf.sprintf "%s: %s fails (got %.10g, bound %.10g)" where rule x y)
  | Error e, _ | _, Error e -> Some (Printf.sprintf "%s: %s fails (%s)" where rule e)

let () =
  let base_path, fresh_path, rules_path =
    match Array.to_list Sys.argv with
    | [ _; b; f; r ] -> b, f, r
    | _ -> die "usage: bench_gate BASELINE FRESH RULES"
  in
  let base = flatten base_path (read base_path) in
  let fresh = flatten fresh_path (read fresh_path) in
  let rules =
    String.split_on_char '\n' (read rules_path)
    |> List.mapi (fun i l -> (Printf.sprintf "%s:%d" rules_path (i + 1), String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let drifted = drifts base fresh in
  let failed = List.filter_map (fun (where, l) -> check_rule ~where fresh l) rules in
  Printf.printf "bench_gate: %s vs %s\n" base_path fresh_path;
  List.iter (Printf.printf "  %s\n") (drifted @ failed);
  if drifted = [] && failed = [] then
    Printf.printf "PASS: %d fields identical, %d rule(s) hold\n" (List.length base)
      (List.length rules)
  else begin
    Printf.printf "FAIL: %d drift(s), %d rule(s) failed\n" (List.length drifted)
      (List.length failed);
    exit 1
  end
