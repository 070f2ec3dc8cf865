type point = { x : float; y : float }
type t = { label : string; points : point list }

let v label pairs = { label; points = List.map (fun (x, y) -> { x; y }) pairs }
(* One Pool.map over every cell, row-major; the results are then dealt
   back to their rows in the same order. *)
let grid ?pool rows =
  let ys = Skipit_par.Pool.map pool (fun (_, cell) -> cell ()) (List.concat_map snd rows) in
  let take ys (x, _) = match ys with y :: rest -> rest, { x; y } | [] -> assert false in
  snd
    (List.fold_left_map
       (fun ys (label, cells) ->
         let ys, points = List.fold_left_map take ys cells in
         ys, { label; points })
       ys rows)

let xs series =
  List.concat_map (fun s -> List.map (fun p -> p.x) s.points) series
  |> List.sort_uniq compare

let y_at s x =
  List.find_opt (fun p -> p.x = x) s.points |> Option.map (fun p -> p.y)

let pp_table ?(x_name = "x") ?(y_name = "") ppf series =
  let cols = List.map (fun s -> s.label) series in
  let width =
    List.fold_left (fun acc label -> max acc (String.length label + 2)) 12 cols
  in
  if y_name <> "" then Format.fprintf ppf "# y: %s@," y_name;
  Format.fprintf ppf "%-12s" x_name;
  List.iter (fun label -> Format.fprintf ppf "%*s" width label) cols;
  Format.fprintf ppf "@,";
  List.iter
    (fun x ->
      Format.fprintf ppf "%-12s" (Printf.sprintf "%g" x);
      List.iter
        (fun s ->
          match y_at s x with
          | Some y ->
            let text = if Float.abs y < 10. then Printf.sprintf "%.2f" y else Printf.sprintf "%.1f" y in
            Format.fprintf ppf "%*s" width text
          | None -> Format.fprintf ppf "%*s" width "-")
        series;
      Format.fprintf ppf "@,")
    (xs series)

