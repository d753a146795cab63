(** Real-process transport: one {!Transport.S} backend per OS process,
    speaking {!Wire} frames over Unix-domain or TCP sockets.

    Where every other backend simulates the cluster inside one process,
    a socket transport hosts exactly ONE node ([local]) and reaches the
    other [nodes - 1] over the network: each process listens on its own
    address ([addr_of local]) and dials its peers lazily, reconnecting
    with backoff whenever a peer dies or is not up yet. The clock is the
    wall clock, timers run on a heap inside a [select] loop, and
    deliveries still go through the event queue — run-to-completion of
    the current handler holds exactly as it does on the simulator.

    {b The channel core, on the wire.} TCP gives FIFO bytes on one
    connection, but a [kill -9] kills connections with the process — so
    exactly-once effects across crashes need the same channel discipline
    {!Reliable} drives in-process, and both drive the one {!Chan} core:
    every directed channel numbers its data frames, the receiver keeps a
    contiguous watermark plus a capped hold-back window and acks
    cumulatively, and the sender retransmits unacked frames on a timer
    and on every reconnect. The receiver persists its watermark advance
    BEFORE running the delivery callback (see {!channels}) and acks only
    after {!set_sync} has flushed the effects — an ack is a durable
    promise, as {!Reliable}'s crash model demands.

    {b The durable outbox.} The transport does not persist anything
    itself; it reports through {!set_persist} and expects the host to
    journal [Sent] records before the first transmission (the
    persist-before-send discipline, implemented by
    [Dpc_core.Durable.Outbox]) and to re-offer the unacked tail with
    {!requeue} after a restart. Closures never cross the wire: senders
    hand over opaque payload strings ({!send_payload}), receivers get
    them back through {!set_deliver} — the runtime's remote hook
    ([Dpc_engine.Runtime.set_remote]) serializes events as journal
    entries on one side and replays them on the other.

    Addresses are ["unix:/path/to.sock"] or ["tcp:host:port"] ({!sockaddr}),
    resolved once, at {!create}. *)

(** What the host must make durable for its outbox, reported
    synchronously and in order. [Sent] fires BEFORE the frame's first
    transmission. Receive-watermark advances are channel state and go
    through {!channels} instead. *)
type persist_event =
  | Sent of { dst : int; seq : int; payload : string }
  | Acked of { dst : int; seq : int }  (** cumulative: every seq [<=] is acked *)

type stats = {
  data_sent : int;
  data_received : int;
  retransmits : int;
  dup_dropped : int;
  held : int;
  overflow_dropped : int;
      (** data frames refused because the receive window already held
          {!Chan.hold_cap} above a gap; unacked, so retransmitted *)
  acks_sent : int;
  reconnects : int;
  chaos_dropped : int;  (** data frames eaten by injected chaos before the wire *)
  chaos_duplicated : int;  (** data frames enqueued twice by injected chaos *)
  chaos_delayed : int;  (** data frames held back by injected chaos *)
  blocked_drops : int;  (** inbound frames eaten because their peer is blocked *)
}

type t

val create : nodes:int -> local:int -> addr_of:(int -> string) -> unit -> t
(** Bind [addr_of local] and return a transport addressing the whole
    [nodes]-wide cluster with only [local] hosted here. Peers are dialed
    on demand (a failed dial retries after 200 ms) and unacked frames
    are rescanned every 250 ms. @raise Invalid_argument on a bad node
    count, an out-of-range [local], or an address {!sockaddr} rejects;
    @raise Unix.Unix_error if the listen address cannot be bound. *)

val sockaddr : string -> Unix.sockaddr
(** Parse and resolve an address; the port must be in [1, 65535].
    @raise Invalid_argument on a malformed address or an unknown host. *)

val transport : t -> Transport.t
(** The {!Transport.S} view: [shards = 1], [shard_of _ = 0], [now] is
    wall-clock seconds since {!create}, [send]/[broadcast] accept only
    the local node as destination (remote destinations need
    {!send_payload} — closures cannot cross a process boundary) and
    [run ?until] pumps the socket loop until {!stop} or the [until]
    horizon instead of quiescence, which no single process can decide. *)

val send_payload : t -> dst:int -> string -> unit
(** Queue a payload on channel [(local, dst)]: assigns the next sequence
    number, reports [Sent] through the persist hook, then transmits (or
    leaves the frame in the unacked outbox until the peer is dialable).
    Retransmission and dedup make the delivery exactly-once at the
    peer's {!set_deliver}. @raise Invalid_argument if [dst] is the local
    node or out of range. *)

val set_deliver : t -> (src:int -> payload:string -> unit) -> unit
(** The data-plane sink: runs exactly once per {!send_payload} at the
    sending process, in channel order, after the watermark advance was
    reported through the {!channels} handle's [set_persist]. *)

val set_control : t -> (payload:string -> reply:(string -> unit) -> unit) -> unit
(** The control-plane handler: a [Ctrl] frame from a control client
    (one that said hello as {!Wire.control_id}) invokes it; [reply]
    queues a [Ctrl] response on the same connection. *)

val set_persist : t -> (persist_event -> unit) -> unit
val set_sync : t -> (unit -> unit) -> unit
(** Called once per delivery batch, after the delivery callbacks and
    before their acks are transmitted — the host flushes its write-ahead
    log here so no ack ever outruns the durability of its effects. *)

(** {2 Injectable link faults}

    The process-level analogue of {!Transport.partitionable} and
    {!Transport.faulty}: partitions are injected by blocking a peer
    (dials refused, established connections dropped, inbound frames
    eaten — a full blackhole of that peer at this endpoint), chaos by a
    hashed per-channel fault schedule over outgoing data frames. Neither
    touches the channel state, so the retransmit/dedup discipline must
    deliver exactly-once effects through both — which is what the
    process-level chaos and partition oracles assert. *)

val set_peer_blocked : t -> peer:int -> bool -> unit
(** Block or unblock one peer (idempotent). Blocking closes the dialed
    and inbound connections to the peer and refuses new ones; frames
    buffered on them die with the connection. Unblocking redials eagerly
    when data or acks are owed — the reconnect handshake re-offers the
    unacked tail. @raise Invalid_argument if [peer] is the local node or
    out of range. *)

val peer_blocked : t -> peer:int -> bool

val set_chaos : t -> config:Transport.fault_config -> seed:int -> unit
(** Corrupt outgoing data frames with {!Transport.hashed_decide} at the
    given rates: drops never reach the wire (the retransmit scan
    re-offers), duplicates are enqueued twice, delays re-offer through a
    timer. Hello, ack and control frames are exempt — the control plane
    stays reliable so an oracle can still drive a chaotic cluster. *)

val clear_chaos : t -> unit

(** {2 Restart support} *)

val set_next_seq : t -> dst:int -> int -> unit
(** Monotonically raise the sender sequence of channel [(local, dst)]. *)

val set_acked : t -> dst:int -> int -> unit
(** Monotonically raise the cumulative ack watermark of channel
    [(local, dst)], dropping the frames it covers from the unacked set. *)

val sender_next_seq : t -> dst:int -> int
(** The sequence the next {!send_payload} toward [dst] would take. After
    a checkpoint restore this is the cut's cursor — the position
    replayed remote sends are reconciled against. *)

val requeue : t -> dst:int -> seq:int -> string -> unit
(** Reload one unacked send from the durable outbox: the frame rejoins
    the retransmit set without a fresh [Sent] record (it already has
    one). Sends below the restored ack watermark are dropped. *)

val channels : t -> Chan.handle
(** The transport's channel state behind the {!Chan.handle} seam, in the
    [dpc-chan-v1] format (next_seq, acked, expected per channel). Only
    the local node has state here: [snapshot] of another node is [None],
    and every operation addressed to another node is ignored. Raises do
    not report events — the durable outbox, not the journal, is the
    sender's cursor; [set_persist] observes the [Expected] advances. *)

val unacked : t -> int
(** Outstanding data frames across all channels (the outbox depth). *)

val stop : t -> unit
(** Make the current (or next) [run] return; idempotent. *)

val close : t -> unit
(** Close every socket and unlink the Unix listen path. The transport
    must not be used afterwards. *)

val stats : t -> stats
