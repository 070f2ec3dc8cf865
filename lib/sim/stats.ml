module Sample = struct
  (* Sorting for the order statistics, specialised to floats: a 3-way
     (Dutch flag) quicksort around a median-of-three pivot, recursing into
     the smaller part and tail-calling on the larger, with insertion sort below
     [cutoff] elements.  Every comparison is an unboxed float compare,
     where [Array.stable_sort Float.compare] runs generic merge code and
     calls the comparison closure.  Without NaN or -0 the float order is
     total and equal floats are identical, so the result is the stable
     sort's. *)
  let cutoff = 16

  let insertion (a : float array) lo hi =
    for i = lo + 1 to hi do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done

  let swap (a : float array) i j =
    let x = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j x

  let median3 (x : float) y z =
    if x < y then (if y < z then y else if x < z then z else x)
    else if x < z then x
    else if y < z then z
    else y

  let rec quicksort (a : float array) lo hi =
    if hi - lo < cutoff then insertion a lo hi
    else begin
      let p =
        median3 (Array.unsafe_get a lo)
          (Array.unsafe_get a (lo + ((hi - lo) / 2)))
          (Array.unsafe_get a hi)
      in
      (* [lo, lt) < p, [lt, i) = p, (gt, hi] > p *)
      let lt = ref lo and i = ref lo and gt = ref hi in
      while !i <= !gt do
        let x = Array.unsafe_get a !i in
        if x < p then begin
          swap a !lt !i;
          incr lt;
          incr i
        end
        else if x > p then begin
          swap a !i !gt;
          decr gt
        end
        else incr i
      done;
      if !lt - lo < hi - !gt then begin
        quicksort a lo (!lt - 1);
        quicksort a (!gt + 1) hi
      end
      else begin
        quicksort a (!gt + 1) hi;
        quicksort a lo (!lt - 1)
      end
    end

  let sort a = quicksort a 0 (Array.length a - 1)

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
      sort arr;
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

module Registry = struct
  (* A counter's cell.  [reported] says whether [to_list] shows it. *)
  type counter = { mutable n : int; mutable reported : bool }

  (* Entries newest first.  A component's registry holds at most a few
     dozen keys, fixed when the component is built, so a name lookup is a
     short scan; and the list is the registry's whole state, which makes
     [copy_into] a pairwise walk. *)
  type t = { mutable entries : (string * counter) list }

  let create () = { entries = [] }

  let rec find name = function
    | [] -> None
    | (k, c) :: rest -> if String.equal k name then Some c else find name rest

  let get t name = match find name t.entries with Some c -> c.n | None -> 0

  (* A handle is its counter, registered unreported at creation: the first
     bump reports it, so a key whose handle never fires stays out of
     [to_list]. *)
  type handle = counter

  let handle t name =
    match find name t.entries with
    | Some c -> c
    | None ->
      let c = { n = 0; reported = false } in
      t.entries <- (name, c) :: t.entries;
      c

  let bump (h : handle) =
    h.n <- h.n + 1;
    h.reported <- true

  let bump_by (h : handle) k =
    h.n <- h.n + k;
    h.reported <- true

  let to_list t =
    List.filter_map
      (fun (name, c) -> if c.reported then Some (name, c.n) else None)
      t.entries
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let rec same_keys a b =
    match a, b with
    | [], [] -> true
    | (ka, _) :: a, (kb, _) :: b -> (ka == kb || String.equal ka kb) && same_keys a b
    | _ -> false

  let rec copy_counts a b =
    match a, b with
    | (_, ca) :: a, (_, cb) :: b ->
      cb.n <- ca.n;
      cb.reported <- ca.reported;
      copy_counts a b
    | _ -> ()

  (* Two registries built by the same code have the same keys in the same
     order: copy the counts pairwise.  Otherwise give [dst] [src]'s keys,
     keeping [dst]'s counter for every key it shares with [src] (its
     handles point there). *)
  let copy_into ~src ~dst =
    if not (same_keys src.entries dst.entries) then begin
      let old = dst.entries in
      dst.entries <-
        List.map
          (fun (name, _) ->
            match find name old with
            | Some c -> name, c
            | None -> name, { n = 0; reported = false })
          src.entries
    end;
    copy_counts src.entries dst.entries
end
