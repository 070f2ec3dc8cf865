(** Chrome trace-event JSON export (loadable in [ui.perfetto.dev]).

    One named thread per component track, thread-scoped instant events for
    plain trace records, and complete ("X") slices for matched request
    start/end pairs on one [req.<class>] track per class.  Entries are
    written in non-decreasing timestamp order and track numbering is
    deterministic (sorted by name), so identical traces export identical
    bytes. *)

val tracks : Trace.t -> string list
(** Distinct track names the trace would render, sorted. *)

(** [?counters] adds Perfetto counter tracks ("C" phase): one series per
    name with [(cycle, value)] points — the shape {!Metrics.counter_tracks}
    produces. *)

val to_string : ?counters:(string * (int * int) list) list -> Trace.t -> string

val write_file : ?counters:(string * (int * int) list) list -> string -> Trace.t -> unit
(** Also warns on stderr when the ring buffer wrapped during recording
    (the export is missing its oldest events). *)
