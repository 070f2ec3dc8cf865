type mode = Automatic | Nvtraverse | Manual

let mode_name = function
  | Automatic -> "automatic"
  | Nvtraverse -> "nvtraverse"
  | Manual -> "manual"

let all_modes = [ Automatic; Nvtraverse; Manual ]
let mode_of_name s = List.find_opt (fun m -> mode_name m = s) all_modes

type t = { s : Strategy.t; mode : mode }

let make s mode = { s; mode }
let strategy t = t.s
let mode t = t.mode
let stride t = t.s.Strategy.field_stride

let read_traverse t addr =
  let v = t.s.Strategy.read addr in
  (match t.mode with
   | Automatic -> t.s.Strategy.persist_load addr
   | Nvtraverse | Manual -> ());
  v

let read_critical t addr =
  let v = t.s.Strategy.read addr in
  (match t.mode with
   | Automatic | Nvtraverse -> t.s.Strategy.persist_load addr
   | Manual -> ());
  v

let write t addr value =
  t.s.Strategy.write addr value;
  match t.mode with
  | Automatic | Nvtraverse -> t.s.Strategy.persist_store addr
  | Manual -> ()

let cas t addr ~expected ~desired =
  let ok = t.s.Strategy.cas addr ~expected ~desired in
  (if ok then
     match t.mode with
     | Automatic | Nvtraverse -> t.s.Strategy.persist_store addr
     | Manual -> ());
  ok

let persist t addr =
  match t.mode with
  | Manual -> t.s.Strategy.persist_store addr
  | Automatic | Nvtraverse -> ()

let commit t ~updated =
  match t.mode with
  | Automatic -> t.s.Strategy.fence ()
  | Nvtraverse | Manual -> if updated then t.s.Strategy.fence ()
