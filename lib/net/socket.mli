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

    {b One sender ledger.} The {!Outbox} passed to {!create} is the
    transport's only sender-side state besides the sequence cursors:
    every send is recorded there before its first transmission (the
    persist-before-send discipline), acks retire frames there, and the
    retransmit scan and every reconnect re-offer its pending tail — so a
    process restarted over the same ledger file resumes its unacked
    sends from the file alone. Receive-watermark advances are channel
    state and go through {!channels}. Closures never cross the wire:
    senders hand over opaque payload strings ({!send_payload}),
    receivers get them back through {!set_deliver} — the runtime's
    remote hook ([Dpc_engine.Runtime.set_remote]) serializes events as
    journal entries on one side and replays them on the other, and
    {!reoffer} reconciles the sends a replay regenerates.

    Addresses are ["unix:/path/to.sock"] or ["tcp:host:port"] ({!sockaddr}),
    resolved once, at {!create}. *)

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

val create : nodes:int -> local:int -> addr_of:(int -> string) -> outbox:Outbox.t -> unit -> t
(** Bind [addr_of local] and return a transport addressing the whole
    [nodes]-wide cluster with only [local] hosted here, its sends kept
    in [outbox] (which {!close} closes). Peers are dialed on demand (a
    failed dial retries after 200 ms) and the ledger's unacked frames
    are rescanned at once and then every 250 ms — frames an earlier
    process left in the ledger go out without a call from the host.
    @raise Invalid_argument on a bad node
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
    number (never below the ledger's cursor), runs the {!set_sync} hook,
    records the frame in the outbox, then transmits (or leaves it in the
    ledger until the peer is dialable). Retransmission and dedup make
    the delivery exactly-once at the peer's {!set_deliver}.
    @raise Invalid_argument if [dst] is the local node or out of range. *)

val reoffer : t -> dst:int -> string -> unit
(** Reconcile one remote send regenerated by a write-ahead-log replay
    (the runtime's [replayed] hook). Replayed sends are counted by
    channel position from the restored cut's cursor: a position the
    ledger already holds is skipped, a later one is recorded and rides
    out with the pending tail. @raise Invalid_argument as
    {!send_payload}. *)

val set_deliver : t -> (src:int -> payload:string -> unit) -> unit
(** The data-plane sink: runs exactly once per {!send_payload} at the
    sending process, in channel order, after the watermark advance was
    reported through the {!channels} handle's [observe]. *)

val set_control : t -> (payload:string -> reply:(string -> unit) -> unit) -> unit
(** The control-plane handler: a [Ctrl] frame from a control client
    (one that said hello as {!Wire.control_id}) invokes it; [reply]
    queues a [Ctrl] response on the same connection. *)

val set_sync : t -> (unit -> unit) -> unit
(** Called before each {!send_payload} records its frame, and once per
    delivery batch after the delivery callbacks and before their acks
    are transmitted — the host flushes its write-ahead log here, so
    neither a ledger record nor an ack ever outruns the durability of
    its cause. *)

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

val channels : t -> Chan.handle
(** The transport's channel state behind the {!Chan.handle} seam, in the
    [dpc-chan-v1] format (next_seq, acked, expected per channel; the
    acked column is read from the ledger and ignored on [restore], since
    the ledger is never behind a cut). Only the local node has state
    here: [snapshot] of another node is [None], and every operation
    addressed to another node is ignored. Raises do not report events —
    the outbox, not the journal, is the sender's durable cursor;
    [observe] sees the [Expected] advances. [forget] resets the
    cursors and receive windows; the ledger is durable and stays. *)

val unacked : t -> int
(** Outstanding data frames across all channels (the ledger's depth). *)

val stop : t -> unit
(** Make the current (or next) [run] return; idempotent. *)

val close : t -> unit
(** Close every socket and the ledger, and unlink the Unix listen path.
    The transport must not be used afterwards. *)

val stats : t -> stats
