(** The [dpcd] control protocol: what a launcher says to a daemon.

    Control messages ride as {!Dpc_net.Wire.Ctrl} frames on the same
    connections as the data plane (the client announces itself with a
    [Hello] carrying {!Dpc_net.Wire.control_id}); the payload is this
    module's serialized request or reply. Replies echo the request
    frame's sequence number, so one connection can pipeline requests.

    The protocol is deliberately a remote mirror of the simulator
    harness: [Load]/[Inject]/[Slow_insert]/[Slow_delete] correspond to
    the [Runtime] entry points of the same names, [Status] feeds the
    launcher's quiescence barrier, and [Digest] is the transparency
    oracle's probe — the store and database digests a daemon reports
    must equal what the simulator computes for the same node. *)

type status = {
  node : int;  (** the daemon's node id *)
  recovered : bool;  (** attach found on-disk state (this run is a recovery) *)
  unacked : int;  (** data frames sent but not yet acked, all channels *)
  data_sent : int;
  data_received : int;
  fired : int;  (** runtime rule firings *)
  outputs : int;  (** output tuples recorded at this node *)
  wal_entries : int;  (** journal entries since the last compaction *)
  outbox_bytes : int;  (** on-disk size of the durable send ledger *)
}

type request =
  | Load of Dpc_ndlog.Tuple.t list  (** [Runtime.load_slow] *)
  | Inject of Dpc_ndlog.Tuple.t  (** an input event; must be homed at the daemon's node *)
  | Slow_insert of Dpc_ndlog.Tuple.t  (** §5.5 update; must be homed here *)
  | Slow_delete of Dpc_ndlog.Tuple.t  (** §5.5 update; must be homed here *)
  | Checkpoint  (** force a compaction ([Durable.checkpoint_now]) *)
  | Status
  | Digest
  | Shutdown  (** stop the event loop; the process exits (no reply) *)
  | Compact  (** rewrite the durable outbox ledger ([Dpc_net.Outbox.compact]) *)
  | Block of int  (** partition this daemon from one peer ([Socket.set_peer_blocked]) *)
  | Unblock of int  (** heal the link to that peer *)

type reply =
  | Ok
  | Deleted of bool  (** [Slow_delete]: whether the tuple was present *)
  | Status_r of status
  | Digest_r of { node : int; store : string; db : string }
      (** hex SHA-1 of the node's provenance tables
          ({!Dpc_core.Backend.digest_node}) and of its relational db
          ({!Dpc_engine.Db.canonical}) *)
  | Error of string

val encode_request : request -> string
val decode_request : string -> request
(** @raise Dpc_util.Serialize.Corrupt on a malformed payload. *)

val encode_reply : reply -> string
val decode_reply : string -> reply
(** @raise Dpc_util.Serialize.Corrupt on a malformed payload. *)
