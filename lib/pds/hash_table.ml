type t = { buckets : Harris_list.t array }

let bucket_of t key =
  let h = key * 0x9E3779B97F4A7C1 in
  t.buckets.((h lsr 19) land max_int mod Array.length t.buckets)

let create p alloc ~buckets =
  if buckets <= 0 then invalid_arg "Hash_table.create: no buckets";
  { buckets = Array.init buckets (fun _ -> Harris_list.create p alloc) }

let insert t p key = Harris_list.insert (bucket_of t key) p key
let delete t p key = Harris_list.delete (bucket_of t key) p key
let contains t p key = Harris_list.contains (bucket_of t key) p key

let repair t p =
  Array.fold_left (fun acc b -> acc + Harris_list.repair b p) 0 t.buckets

let elements_unsafe t system =
  Array.to_list t.buckets
  |> List.concat_map (fun b -> Harris_list.to_list_unsafe b system)
  |> List.sort compare

let rebind t alloc = { buckets = Array.map (fun b -> Harris_list.rebind b alloc) t.buckets }
