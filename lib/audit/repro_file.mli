(** The key=value reproducer file format shared by the crash campaign and
    the fleet: one [key=value] pair per line; blank lines and lines starting
    with [#] are ignored; a later duplicate key wins.  A format is one table
    of {!field}s, in file order, that the writer and the reader both walk.
    Every reader error is a one-line reason rather than a fallback to a
    default, so a damaged file never replays a different configuration. *)

type t

type 'a field
(** One key, printed from an ['a] (or omitted) and read into one.  An
    absent key is ["missing field KEY"] unless it is [optional] (a key
    older files lack), which leaves the value as it is. *)

val named :
  ?optional:bool -> string -> ('v -> string) -> (string -> 'v option) -> get:('a -> 'v) ->
  set:('a -> 'v -> 'a) -> 'a field
(** A value printed by a name function and read back by its inverse,
    failing with ["unknown KEY VALUE"]. *)

val int :
  ?optional:bool -> ?check:(int -> string option) -> string -> show:('a -> int option) ->
  set:('a -> int -> 'a) -> 'a field
(** An integer, failing with ["bad integer for KEY"], or with [check]'s
    reason when it returns one. *)

val write : string -> header:string -> ?notes:string list -> 'a field list -> 'a -> unit
(** [write path ~header ~notes fields v]: the [# header] line, one
    [key=value] line per field shown, then one [# note] line per note. *)

val read : string -> (t, string) result
(** [Error] on an unreadable file ([Sys_error]'s message). *)

val decode : t -> 'a field list -> 'a -> ('a, string) result
(** [v] with each field read into it in order; the first error wins.
    Keys outside the table are ignored. *)
