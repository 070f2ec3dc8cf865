(* Chrome trace-event JSON exporter (the legacy JSON flavour Perfetto's
   ui.perfetto.dev opens directly).

   Every component track becomes a named thread of one "skipit_sim" process;
   events render as thread-scoped instants, and matched request spans render
   as complete ("X") slices on one track per request class.  Output is
   deterministic: tracks are numbered in sorted-name order and entries are
   emitted in non-decreasing timestamp order (stable, so same-cycle events
   keep emission order). *)

type entry = {
  ts : int;
  dur : int option;  (* Some d => complete slice, None => instant *)
  track : string;
  name : string;
  args : (string * string) list;
}

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Flatten a trace into renderable entries: instants for plain events,
   slices for matched request pairs. *)
let entries trace =
  let acc, _, _ =
    Trace.fold_spans trace []
      ~span:(fun acc { Trace.id; cls; core; addr; t0; t1 } ->
        {
          ts = t0;
          dur = Some (max 0 (t1 - t0));
          track = "req." ^ Trace.cls_name cls;
          name = Trace.cls_name cls;
          args =
            [ "id", string_of_int id; "core", string_of_int core; "addr", Printf.sprintf "%#x" addr ];
        }
        :: acc)
      ~other:(fun acc { Trace.at; ev } ->
        (* A [Meta] event declares its track; nothing to render. *)
        let name, args =
          match ev with Trace.Meta _ -> "", [] | _ -> Trace.event_name ev, Trace.event_args ev
        in
        { ts = at; dur = None; track = Trace.track ev; name; args } :: acc)
  in
  List.stable_sort (fun a b -> compare a.ts b.ts) (List.rev acc)

let tracks trace =
  List.sort_uniq String.compare (List.map (fun e -> e.track) (entries trace))

(* Counter tracks ("C" phase, process-scoped): one series per name, points
   already in (cycle, value) order from Metrics.counter_tracks. *)
let emit_counters buf counters =
  List.iter
    (fun (name, points) ->
      List.iter
        (fun (ts, v) ->
          Buffer.add_string buf
            (Printf.sprintf
               ",\n{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":0,\"args\":{\"value\":%d}}"
               (escape name) ts v))
        points)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) counters)

let to_string ?(counters = []) trace =
  let buf = Buffer.create 65536 in
  let entries = entries trace in
  let tracks = List.sort_uniq String.compare (List.map (fun e -> e.track) entries) in
  let tid_of = Hashtbl.create 16 in
  List.iteri (fun i tr -> Hashtbl.replace tid_of tr (i + 1)) tracks;
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"skipit_sim\"}}";
  List.iter
    (fun tr ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (Hashtbl.find tid_of tr) (escape tr)))
    tracks;
  List.iter
    (fun e ->
      if e.name <> "" then begin
        let tid = Hashtbl.find tid_of e.track in
        let args =
          String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)) e.args)
        in
        match e.dur with
        | Some d ->
          Buffer.add_string buf
            (Printf.sprintf
               ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":0,\"tid\":%d,\"args\":{%s}}"
               (escape e.name) e.ts d tid args)
        | None ->
          Buffer.add_string buf
            (Printf.sprintf
               ",\n{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"s\":\"t\",\"args\":{%s}}"
               (escape e.name) e.ts tid args)
      end)
    entries;
  emit_counters buf counters;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf

(* Ring wraparound means the export is silently missing the oldest events;
   say so on stderr instead of letting a truncated trace pass for a full
   one. *)
let warn_dropped trace =
  let d = Trace.dropped trace in
  if d > 0 then
    Printf.eprintf
      "perfetto: ring buffer wrapped during recording: %d event(s) dropped (capacity %d); export is truncated — raise the trace capacity\n%!"
      d (Trace.capacity trace)

let write_file ?counters path trace =
  warn_dropped trace;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string ?counters trace))
