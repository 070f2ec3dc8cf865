module Thread = Skipit_core.Thread
module Int_tbl = Skipit_sim.Int_tbl

type t = {
  load : int -> int;
  store : int -> int -> unit;
  cas : int -> expected:int -> desired:int -> bool;
  flush : int -> unit;
  fence : unit -> unit;
}

let timed =
  {
    load = Thread.load;
    store = Thread.store;
    cas = Thread.cas;
    flush = Thread.flush;
    fence = Thread.fence;
  }

let untimed () =
  let words = Int_tbl.create () in
  let load addr = Int_tbl.find_default words addr ~default:0 in
  let store addr v = Int_tbl.replace words addr v in
  let cas addr ~expected ~desired =
    load addr = expected
    && begin
      store addr desired;
      true
    end
  in
  { load; store; cas; flush = ignore; fence = ignore }
