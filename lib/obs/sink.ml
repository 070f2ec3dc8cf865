type 'a t = { key : 'a option Domain.DLS.key; installed : int Atomic.t }

let create () = { key = Domain.DLS.new_key (fun () -> None); installed = Atomic.make 0 }

(* With nothing installed on any domain, one atomic read answers. *)
let get s = if Atomic.get s.installed = 0 then None else Domain.DLS.get s.key

let set s v =
  (match Domain.DLS.get s.key, v with
   | None, Some _ -> Atomic.incr s.installed
   | Some _, None -> Atomic.decr s.installed
   | Some _, Some _ | None, None -> ());
  Domain.DLS.set s.key v

let take s =
  let v = get s in
  set s None;
  v
