(** One [dpcd] process: a single scenario node hosted on a socket
    transport with its log on real disk.

    The daemon is where the pieces meet — it owns the wiring diagram of
    the real-process stack:

    {ul
    {- {!Dpc_net.Socket} carries the frames over the daemon's
       {!Dpc_net.Outbox} ledger ([dir/node-<local>/outbox.log]), which
       it records every send in and retires acks from; its [sync] hook
       flushes the WAL first, so a send's cause is never less durable
       than the send. [Expected] watermark advances go into the
       journal.}
    {- {!Dpc_engine.Runtime.set_remote} turns cross-process shipments
       into serialized journal entries over {!Dpc_net.Socket.send_payload};
       inbound frames apply through {!Dpc_engine.Runtime.deliver_remote}.}
    {- {!Dpc_core.Durable.attach} with [?disk] puts checkpoints and the WAL
       under [dir/node-<local>/]. On a restart the daemon finds the
       manifest and {!Dpc_core.Durable.recover}s; replayed remote sends
       go to {!Dpc_net.Socket.reoffer}, which reconciles them with the
       ledger by channel position, and the socket re-offers the
       ledger's unacked tail by itself.}}

    The control plane ({!Ctrl}) makes the process drivable from a
    launcher; {!Cluster} uses it to run the transparency oracle. *)

type t

val create :
  scheme:Dpc_core.Backend.scheme ->
  nodes:int ->
  local:int ->
  addr_of:(int -> string) ->
  dir:string ->
  ?config:Dpc_core.Durable.config ->
  ?chaos:Dpc_net.Transport.fault_config * int ->
  unit ->
  t
(** Build the node and bind its listen address. If [dir/node-<local>/]
    already holds a manifest, the volatile state is rebuilt from disk
    before the function returns — a caller never sees a half-recovered
    daemon. [config] defaults to [{checkpoint_every = 4; rebase_every =
    2}], small enough that the scenario exercises delta cuts and outbox
    compaction. [chaos] is a [(rates, seed)] pair passed to
    {!Dpc_net.Socket.set_chaos} — hashed per-channel frame corruption,
    the process-level chaos sweep. *)

val serve : t -> unit
(** Pump the socket loop until a [Shutdown] control request (or
    {!Dpc_net.Socket.stop}); closes the sockets before returning. *)

val socket : t -> Dpc_net.Socket.t
val runtime : t -> Dpc_engine.Runtime.t
val durable : t -> Dpc_core.Durable.t
