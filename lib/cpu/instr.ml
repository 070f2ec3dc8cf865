type t =
  | Load of { addr : int }
  | Store of { addr : int; value : int }
  | Cas of { addr : int; expected : int; desired : int }
  | Cbo_clean of { addr : int }
  | Cbo_flush of { addr : int }
  | Cbo_inval of { addr : int }
  | Cbo_zero of { addr : int }
  | Fence
  | Delay of int

let touches = function
  | Load { addr }
  | Store { addr; _ }
  | Cas { addr; _ }
  | Cbo_clean { addr }
  | Cbo_flush { addr }
  | Cbo_inval { addr }
  | Cbo_zero { addr } -> Some addr
  | Fence | Delay _ -> None

