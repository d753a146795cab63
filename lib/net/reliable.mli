(** At-least-once delivery with exactly-once effects, over any transport.

    The engine's cross-node invariants — the [(NLoc, NRID)] back-pointers
    of §4 and the §5.5 [sig] broadcast — assume every message takes effect
    exactly once. A {!Transport.faulty} network breaks that: messages are
    lost, arrive twice, or arrive late. This layer restores the guarantee
    the invariants need:

    - every directed [(src, dst)] channel numbers its messages with a
      sequence number ([data_header_bytes] on the wire);
    - the receiver keeps a dedup/reorder window — the {!Chan} core's
      contiguous watermark plus the arrivals held above a gap, up to
      {!Chan.hold_cap} of them — so each message's callback runs
      exactly once and in channel order, no matter how many copies arrive
      or how late. It acks ([ack_bytes] on the wire) only arrivals the
      watermark covers: a delivered message or a below-watermark
      duplicate. An arrival held above a gap is NOT acked — the window is
      volatile, so an ack is a durable promise the receiver can only make
      for the contiguous prefix (see the crash support below);
    - the sender retransmits on an ack timeout, backing off exponentially
      up to a cap (with optional deterministic per-channel jitter), and
      after [max_retries] retransmissions {e suspends} the channel: the
      unacked tail is parked, a cheap heal probe runs on the same capped
      backoff, and when the probe is answered the channel {e resurrects}
      — the parked tail re-offers in sequence order, so a partition
      longer than the whole retry budget still ends in exactly-once FIFO
      delivery once the link heals.

    Transmission is at-least-once; *effects* are exactly-once and FIFO per
    channel — the TCP assumption the paper makes. Exactly-once alone is
    not enough: in the Advanced scheme a same-class event shipped with
    [exist_flag = true] must not overtake the earlier event that
    materializes its equivalence class on the shared channel, or its tree
    is orphaned (the §5.5 race). Cross-channel ordering is not (and need
    not be) restored; §5.6 covers that.

    The price of FIFO is head-of-line blocking: a gap holds later arrivals
    on the channel until the retransmit lands, and a suspended channel
    holds its whole tail until resurrection. [abandoned] counts the
    currently-parked backlog — it must drain to zero once every partition
    heals, which the partition oracle asserts.

    All retransmit and probe timers ride on the inner transport's clock,
    so a simulated run with faults still quiesces deterministically —
    {b provided every partition eventually heals}. A suspended channel
    probes forever; drive an unhealed phase with [run ~until], not
    [run]. *)

type config = {
  timeout : float;  (** seconds before the first retransmission *)
  backoff : float;  (** timeout multiplier per further attempt *)
  max_timeout : float;  (** backoff cap, seconds *)
  max_retries : int;  (** retransmissions before suspending the channel *)
  jitter : float;
      (** fraction of the capped delay a deterministic per-channel hash
          may pull each retransmit/probe timer earlier; [0] disables.
          De-synchronizes the retransmit storm after a heal. *)
}

val default_config : config
(** 50 ms initial timeout, doubling to a 1 s cap, 20 retransmissions,
    no jitter. *)

val backoff_delay : config -> src:int -> dst:int -> attempt:int -> float
(** The delay armed after the [attempt]th transmission (1-based):
    [timeout * backoff^(attempt-1)] capped at [max_timeout], then scaled
    into [[(1-jitter) * capped, capped]] by a pure hash of
    [(src, dst, attempt)] — deterministic per channel, no shared stream.
    Exposed for the backoff-arithmetic tests and for anything that wants
    to reason about the retry budget [sum of the first max_retries + 1
    delays]. *)

val data_header_bytes : int
(** Wire bytes the layer adds to every data transmission (the channel
    sequence number). *)

val ack_bytes : int
(** Wire size of one acknowledgement message. *)

val probe_bytes : int
(** Wire size of one heal probe (and of its pong) — the whole per-probe
    cost of a suspended channel is [2 * probe_bytes] per backoff period,
    versus a full data retransmission per period before suspension. *)

type stats = {
  data_msgs : int;  (** distinct messages accepted from the sender *)
  data_bytes : int;  (** first-transmission bytes, headers included *)
  retransmits : int;  (** retransmissions performed (re-offers included) *)
  retransmit_bytes : int;
  acks : int;  (** acknowledgements sent *)
  ack_bytes_total : int;
  dup_dropped : int;  (** arrivals suppressed by the dedup window *)
  held : int;  (** arrivals parked behind a sequence gap, then replayed *)
  overflow_dropped : int;
      (** arrivals refused because the receive window already held
          {!Chan.hold_cap} above a gap; unacked, so retransmitted *)
  abandoned : int;
      (** messages currently parked on a suspended channel. Rises while a
          partition outlives the retry budget, drains to zero on
          resurrection (or on a crash wipe of the sender) — the health
          invariant every oracle asserts at end of run. *)
  suspensions : int;  (** channel transitions into the suspended state *)
  resurrections : int;  (** suspended channels brought back by a probe *)
  parked : int;  (** messages ever parked (cumulative) *)
  probes : int;  (** heal probes sent *)
}

type t

val wrap : ?config:config -> ?metrics:(int -> Dpc_util.Metrics.t) -> Transport.t -> t
(** Layer reliable delivery over a transport. When [metrics] maps a node
    id to its registry, the layer records per-node counters:
    [net.data_msgs], [net.retransmits], [net.retransmit_bytes],
    [net.parked], [net.suspensions], [net.resurrections] and
    [net.probes] at the sender; [net.acks_sent], [net.ack_bytes],
    [net.dup_dropped], [net.held] and [net.overflow_dropped] at the
    receiver.
    @raise Invalid_argument on a non-positive timeout, backoff below 1,
    negative max_retries, or jitter outside [0, 1). *)

val suspended_channels : t -> int
(** Number of channels currently suspended (parked tail waiting on a
    heal probe). Zero once every partition has healed and every probe
    has been answered. *)

val transport : t -> Transport.t
(** The reliable transport: [send] and [broadcast] deliver their callback
    exactly once per message (given enough retries); [schedule], [run],
    [now], byte and message totals delegate to the inner transport — so
    [total_bytes] includes ack and retransmit traffic, and {!stats} says
    how much of it there was. *)

val stats : t -> stats
(** Cluster-wide totals (the per-node breakdown lives in [metrics]). *)

(** {2 Crash support: channel state as data}

    A node's share of the channel state — the [next_seq] of channels it
    sends on, the [expected] watermark of channels it receives on — can be
    journaled, checkpointed, wiped on crash, and restored on recovery.
    The reorder window itself is never saved: held arrivals are unacked
    by construction, so the peers' retransmissions rebuild it. Restoring
    the watermark IS the recovery handshake — no explicit re-announce
    message is needed, because a retransmission below the restored
    watermark is acked as a duplicate and one at it is delivered. *)

val channels : t -> Chan.handle
(** The layer's channel state behind the {!Chan.handle} seam, in the
    [dpc-rel-v1] format: [snapshot] always returns a blob (channels still
    at sequence 0 are skipped), [restore] goes through the monotonic
    raises, every raise that moves reports its {!Chan.event}, and
    [forget] wipes the node's [next_seq]s, watermarks and held windows
    in place — and with them its parked tails and probe loops — as a
    crash does. Without a subsequent [restore] or raises, the node would
    reuse sequence numbers its peers have already seen. [Next_seq]
    events fire at each send, [Expected] ones before the delivery they
    cover, so journal entries written from inside the callback follow
    them. *)
