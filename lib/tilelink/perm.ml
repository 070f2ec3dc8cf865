type t = Nothing | Branch | Trunk

let equal a b =
  match a, b with
  | Nothing, Nothing | Branch, Branch | Trunk, Trunk -> true
  | (Nothing | Branch | Trunk), _ -> false

let rank = function Nothing -> 0 | Branch -> 1 | Trunk -> 2
let compare a b = Int.compare (rank a) (rank b)
let includes have need = rank have >= rank need

let to_string = function Nothing -> "N" | Branch -> "B" | Trunk -> "T"

type grow = N_to_B | N_to_T | B_to_T
type shrink = T_to_B | T_to_N | B_to_N | T_to_T | B_to_B | N_to_N

let grow_from = function N_to_B | N_to_T -> Nothing | B_to_T -> Branch
let grow_to = function N_to_B -> Branch | N_to_T | B_to_T -> Trunk

let shrink_from = function
  | T_to_B | T_to_N | T_to_T -> Trunk
  | B_to_N | B_to_B -> Branch
  | N_to_N -> Nothing

let shrink_to = function
  | T_to_B | B_to_B -> Branch
  | T_to_N | B_to_N | N_to_N -> Nothing
  | T_to_T -> Trunk

let shrink_for ~from ~cap =
  match from, cap with
  | Trunk, Nothing -> T_to_N
  | Trunk, Branch -> T_to_B
  | Trunk, Trunk -> T_to_T
  | Branch, Nothing -> B_to_N
  | Branch, (Branch | Trunk) -> B_to_B
  | Nothing, (Nothing | Branch | Trunk) -> N_to_N

