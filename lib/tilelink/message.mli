(** The RootRelease parameter of the paper's TileLink-C extension (§5.1).

    A CBO.X reaches the L2 as a RootRelease on channel C, encoded on real
    hardware as a ProbeAck with param FLUSH or CLEAN (so the opcode
    bitvector does not widen), and is answered by a RootReleaseAck on
    channel D.  The hierarchy models the channels as {!Port}'s typed
    operations and traces them as [Trace.Msg_*] events; line beats come
    from [Params.data_beats].  This module names which writeback the
    RootRelease performs. *)

(** Which writeback instruction a RootRelease performs. *)
type wb_kind = Wb_clean | Wb_flush
