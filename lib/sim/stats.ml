module Sample = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    (* Sorted view shared by percentile/median; rebuilt lazily after adds.
       Order-statistic sweeps (p50/p90/p99 over the same sample) would
       otherwise re-sort per query. *)
    mutable sorted_cache : float array option;
  }

  let create () = { data = Array.make 16 0.; len = 0; sorted_cache = None }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted_cache <- None

  let add_int t x = add t (float_of_int x)
  let count t = t.len
  let is_empty t = t.len = 0

  let fold f init t =
    let acc = ref init in
    for i = 0 to t.len - 1 do
      acc := f !acc t.data.(i)
    done;
    !acc

  let total t = fold ( +. ) 0. t

  let mean t =
    if t.len = 0 then invalid_arg "Sample.mean: empty";
    total t /. float_of_int t.len

  let min t =
    if t.len = 0 then invalid_arg "Sample.min: empty";
    fold Float.min Float.infinity t

  let max t =
    if t.len = 0 then invalid_arg "Sample.max: empty";
    fold Float.max Float.neg_infinity t

  let sorted t =
    match t.sorted_cache with
    | Some arr -> arr
    | None ->
      let arr = Array.sub t.data 0 t.len in
      (* Merge sort beats [Array.sort]'s heap sort on large samples; the
         sorted array is the same, as samples are never NaN or -0. *)
      Array.stable_sort Float.compare arr;
      t.sorted_cache <- Some arr;
      arr

  let percentile t p =
    if t.len = 0 then invalid_arg "Sample.percentile: empty";
    if Float.is_nan p || p < 0. || p > 100. then
      invalid_arg "Sample.percentile: p out of range";
    let arr = sorted t in
    let n = Array.length arr in
    (* The boundary cases are answered exactly rather than through the
       interpolation arithmetic, so p=0/p=100 return the true min/max even
       when [p /. 100. *. (n-1)] would round across an index boundary. *)
    if n = 1 || p <= 0. then arr.(0)
    else if p >= 100. then arr.(n - 1)
    else begin
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let lo = if lo < 0 then 0 else Stdlib.min lo (n - 1) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      let frac = if frac < 0. then 0. else Stdlib.min frac 1. in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
    end

  let median t = percentile t 50.

  let stddev t =
    if t.len < 2 then 0.
    else begin
      let m = mean t in
      let sumsq = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. t in
      sqrt (sumsq /. float_of_int t.len)
    end

  let values t = Array.sub t.data 0 t.len
end

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let get t = t.n
  let reset t = t.n <- 0
end

module Registry = struct
  type t = (string, Counter.t) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let counter t name =
    match Hashtbl.find_opt t name with
    | Some c -> c
    | None ->
      let c = Counter.create () in
      Hashtbl.add t name c;
      c

  let get t name =
    match Hashtbl.find_opt t name with Some c -> Counter.get c | None -> 0

  let incr t name = Counter.incr (counter t name)
  let add t name k = Counter.add (counter t name) k

  (* A handle caches its counter after the first bump.  Until then it
     points at [unbound], which is never written: binding on first use
     keeps a key that never fires out of [to_list].  The [bound] flag,
     not physical equality with [unbound], marks a bound handle, so a
     marshalled copy of a handle still binds on its first bump. *)
  type handle = { reg : t; key : string; mutable c : Counter.t; mutable bound : bool }

  let unbound = Counter.create ()
  let handle reg key = { reg; key; c = unbound; bound = false }

  let bind h =
    h.c <- counter h.reg h.key;
    h.bound <- true

  let bump h =
    if not h.bound then bind h;
    Counter.incr h.c

  let bump_by h k =
    if not h.bound then bind h;
    Counter.add h.c k

  let reset_all t = Hashtbl.iter (fun _ c -> Counter.reset c) t

  let to_list t =
    Hashtbl.fold (fun name c acc -> (name, Counter.get c) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    List.iter (fun (name, n) -> Format.fprintf ppf "%s: %d@," name n) (to_list t);
    Format.fprintf ppf "@]"
end
