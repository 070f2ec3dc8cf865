type t = (string, string) Hashtbl.t

let write path ~header ?(notes = []) fields =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "# %s\n" header;
  List.iter (fun (k, v) -> Printf.fprintf oc "%s=%s\n" k v) fields;
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

let find = Hashtbl.find_opt

let get t k = Option.to_result ~none:("missing field " ^ k) (find t k)

let parse t k of_name =
  Result.bind (get t k) (fun v ->
    Option.to_result ~none:(Printf.sprintf "unknown %s %s" k v) (of_name v))

let int t k =
  Result.bind (get t k) (fun v ->
    Option.to_result ~none:("bad integer for " ^ k) (int_of_string_opt v))
