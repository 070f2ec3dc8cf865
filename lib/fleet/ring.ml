(* splitmix64 finalizer: the same mixer Skipit_sim.Rng is built on, used
   here as a stateless hash. *)
let mix64 x =
  let open Int64 in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let golden = 0x9e3779b97f4a7c15L

type t = {
  n : int;
  points : int64 array;  (* sorted ring positions *)
  owners : int array;  (* owners.(i) owns points.(i) *)
  salt : int64;
}

let create ~shards ~vnodes ~seed =
  if shards < 1 then invalid_arg "Ring.create: shards must be >= 1";
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be >= 1";
  let salt = mix64 (Int64.mul (Int64.of_int (seed + 1)) golden) in
  let pts =
    Array.init (shards * vnodes) (fun i ->
      let s = i / vnodes and v = i mod vnodes in
      let h =
        mix64
          (Int64.add salt
             (Int64.mul (Int64.of_int (((s + 1) * 65599) + v + 1)) golden))
      in
      (h, s))
  in
  (* Unsigned order, owner id as a deterministic tie-break (a 64-bit point
     collision is astronomically unlikely but must not make the sort
     order host-dependent). *)
  Array.sort
    (fun (a, sa) (b, sb) ->
      let c = Int64.unsigned_compare a b in
      if c <> 0 then c else compare sa sb)
    pts;
  {
    n = shards;
    points = Array.map fst pts;
    owners = Array.map snd pts;
    salt;
  }

let shards t = t.n

let key_point t key = mix64 (Int64.add t.salt (Int64.mul (Int64.of_int key) golden))

(* First ring index whose point is >= h (unsigned), wrapping to 0. *)
let search t h =
  let lo = ref 0 and hi = ref (Array.length t.points) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare t.points.(mid) h < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo >= Array.length t.points then 0 else !lo

let replicas t ~key ~k =
  let k = min k t.n in
  if k <= 0 then []
  else begin
    let len = Array.length t.points in
    let start = search t (key_point t key) in
    let seen = Array.make t.n false in
    let out = ref [] in
    let found = ref 0 in
    let i = ref 0 in
    while !found < k && !i < len do
      let s = t.owners.((start + !i) mod len) in
      if not seen.(s) then begin
        seen.(s) <- true;
        out := s :: !out;
        incr found
      end;
      incr i
    done;
    List.rev !out
  end

let owner t ~key = match replicas t ~key ~k:1 with s :: _ -> s | [] -> assert false

type replica_table = { ring : t; k : int; sets : int list array  (* by key *) }

let replica_table t ~key_range ~k =
  { ring = t; k; sets = Array.init (max 0 (key_range + 1)) (fun key -> replicas t ~key ~k) }

let route r ~key =
  if key >= 0 && key < Array.length r.sets then Array.unsafe_get r.sets key
  else replicas r.ring ~key ~k:r.k
