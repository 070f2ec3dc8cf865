type kind = List_set | Hash_set | Bst_set | Skiplist_set

let all_kinds = [ List_set; Hash_set; Bst_set; Skiplist_set ]

let kind_name = function
  | List_set -> "linked-list"
  | Hash_set -> "hash-table"
  | Bst_set -> "bst"
  | Skiplist_set -> "skiplist"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

let uses_word_bits = function
  | Bst_set -> true
  | List_set | Hash_set | Skiplist_set -> false

type structure =
  | List of Harris_list.t
  | Hash of Hash_table.t
  | Bst of Bst.t
  | Skiplist of Skiplist.t

type handle = {
  name : string;
  insert : Skipit_persist.Pctx.t -> int -> bool;
  delete : Skipit_persist.Pctx.t -> int -> bool;
  contains : Skipit_persist.Pctx.t -> int -> bool;
  repair : Skipit_persist.Pctx.t -> int;
  snapshot : Skipit_core.System.t -> int list;
  structure : structure;
}

let of_structure structure =
  match structure with
  | List t ->
    {
      name = kind_name List_set;
      insert = Harris_list.insert t;
      delete = Harris_list.delete t;
      contains = Harris_list.contains t;
      repair = Harris_list.repair t;
      snapshot = Harris_list.to_list_unsafe t;
      structure;
    }
  | Hash t ->
    {
      name = kind_name Hash_set;
      insert = Hash_table.insert t;
      delete = Hash_table.delete t;
      contains = Hash_table.contains t;
      repair = Hash_table.repair t;
      snapshot = Hash_table.elements_unsafe t;
      structure;
    }
  | Bst t ->
    {
      name = kind_name Bst_set;
      insert = Bst.insert t;
      delete = Bst.delete t;
      contains = Bst.contains t;
      repair = Bst.repair t;
      snapshot = Bst.elements_unsafe t;
      structure;
    }
  | Skiplist t ->
    {
      name = kind_name Skiplist_set;
      insert = Skiplist.insert t;
      delete = Skiplist.delete t;
      contains = Skiplist.contains t;
      repair = Skiplist.repair t;
      snapshot = Skiplist.elements_unsafe t;
      structure;
    }

let create_sized kind ~buckets p alloc =
  of_structure
    (match kind with
     | List_set -> List (Harris_list.create p alloc)
     | Hash_set -> Hash (Hash_table.create p alloc ~buckets)
     | Bst_set -> Bst (Bst.create p alloc)
     | Skiplist_set -> Skiplist (Skiplist.create p alloc))

let create kind p alloc = create_sized kind ~buckets:512 p alloc

let rebind h alloc =
  of_structure
    (match h.structure with
     | List t -> List (Harris_list.rebind t alloc)
     | Hash t -> Hash (Hash_table.rebind t alloc)
     | Bst t -> Bst (Bst.rebind t alloc)
     | Skiplist t -> Skiplist (Skiplist.rebind t alloc))
