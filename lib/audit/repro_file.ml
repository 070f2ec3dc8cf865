type t = (string, string) Hashtbl.t

type 'a field = {
  key : string;
  optional : bool;
  show : 'a -> string option;
  read : 'a -> string -> ('a, string) result;
}

let named ?(optional = false) key name of_name ~get ~set =
  let show a = Some (name (get a)) in
  let read a v =
    Option.to_result ~none:(Printf.sprintf "unknown %s %s" key v) (Option.map (set a) (of_name v))
  in
  { key; optional; show; read }

let int ?(optional = false) ?(check = fun _ -> None) key ~show ~set =
  let show a = Option.map string_of_int (show a) in
  let read a v =
    match int_of_string_opt v with
    | None -> Error ("bad integer for " ^ key)
    | Some n -> ( match check n with Some why -> Error why | None -> Ok (set a n))
  in
  { key; optional; show; read }

let write path ~header ?(notes = []) fields v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "# %s\n" header;
  List.iter (fun f -> Option.iter (Printf.fprintf oc "%s=%s\n" f.key) (f.show v)) fields;
  List.iter (Printf.fprintf oc "# %s\n") notes

let read path =
  try
    let ic = open_in path in
    let fields = Hashtbl.create 32 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line '=' with
           | Some i ->
             Hashtbl.replace fields
               (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
           | None -> ()
       done
     with End_of_file -> close_in ic);
    Ok fields
  with Sys_error e -> Error e

let decode t fields v =
  List.fold_left
    (fun acc f ->
      Result.bind acc (fun v ->
        match Hashtbl.find_opt t f.key with
        | None when f.optional -> Ok v
        | None -> Error ("missing field " ^ f.key)
        | Some s -> f.read v s))
    (Ok v) fields
