(** The key=value reproducer file format shared by the crash campaign and
    the fleet: one [key=value] pair per line; blank lines and lines starting
    with [#] are ignored; a later duplicate key wins.  Every accessor
    returns [Error] with a one-line reason rather than falling back to a
    default, so a damaged file never replays a different configuration. *)

type t

val write : string -> header:string -> ?notes:string list -> (string * string) list -> unit
(** [write path ~header ~notes fields]: the [# header] line, one
    [key=value] line per field, then one [# note] line per note. *)

val read : string -> (t, string) result
(** [Error] on an unreadable file ([Sys_error]'s message). *)

val find : t -> string -> string option

val parse : t -> string -> (string -> 'a option) -> ('a, string) result
(** A required key's value through a parser: ["missing field KEY"] when
    absent, ["unknown KEY VALUE"] when the parser rejects it. *)

val int : t -> string -> (int, string) result
(** As {!parse} for an integer, failing with ["bad integer for KEY"]. *)
