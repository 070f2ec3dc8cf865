(** Result containers shared by every figure driver: a labelled series of
    (x, y) points plus text rendering for the harness output. *)

type point = { x : float; y : float }

type t = { label : string; points : point list }

val v : string -> (float * float) list -> t

val grid :
  ?pool:Skipit_par.Pool.t -> (string * (float * (unit -> float)) list) list -> t list
(** [grid ?pool rows] runs an experiment grid: each row is a label and its
    cells, each cell an x value and an independent simulation giving its y.
    Every cell of every row runs in one {!Skipit_par.Pool.map}, row-major,
    so the result — one series per row, in order — is byte-identical at
    any pool width.  Rows may differ in length. *)

val pp_table : ?x_name:string -> ?y_name:string -> Format.formatter -> t list -> unit
(** Render several series as an aligned text table, one row per x value,
    one column per series (the form the paper's figures tabulate). *)
