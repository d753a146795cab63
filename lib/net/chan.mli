(** The exactly-once FIFO channel core both delivery backends drive.

    {!Reliable} (the simulator) and {!Socket} (real processes) differ in
    how a frame reaches the wire and how a lost one is re-offered —
    backoff timers and heal probes in one, connections and a retransmit
    scan in the other — but they number, deduplicate, reorder and
    persist channel state identically, and that shared part lives here.
    The module is pure: no IO, no clock, no timers, no locks.

    A directed channel has two halves kept in separate records, because
    under a sharded transport they are owned by different domains: the
    sender's {!tx} assigns sequence numbers, the receiver's {!rx} is the
    dedup/reorder window. Each backend fixes its sequence base at
    construction ([0] for {!Reliable}, [1] for {!Socket}); a reset
    returns a half to its base. *)

val hold_cap : int
(** Arrivals a receive window holds above a gap before it refuses new
    ones (1024). A refused arrival was never acked, so the sender's
    retransmission brings it back once the gap fills. *)

(** {2 Sender half} *)

type tx

val tx : base:int -> tx

val next_seq : tx -> int
(** The sequence the next {!assign} returns. *)

val assign : tx -> int
(** Take the next sequence number. *)

val raise_next_seq : tx -> int -> bool
(** Monotonic restore: raise [next_seq] to the value if it is lower.
    Returns whether it moved. *)

val reset_tx : tx -> unit
(** Back to the base, as a crash of the sender does. *)

(** {2 Receiver half} *)

type 'a rx
(** A contiguous watermark ([expected]: every sequence below it has been
    delivered, in order) plus the arrivals held above a gap, each with
    its ['a] delivery payload. *)

val rx : base:int -> 'a rx

val expected : 'a rx -> int

val covers : 'a rx -> int -> bool
(** [covers rx seq]: the watermark is past [seq]. This is the ack rule
    of both backends — an arrival is acked only when the contiguous
    prefix covers it, because the held window is volatile and an ack is
    a durable promise. *)

type verdict =
  | Delivered  (** in order: delivered, then the window drained behind it *)
  | Duplicate  (** below the watermark, or already held *)
  | Held  (** above a gap: parked until the gap fills *)
  | Overflow  (** above a gap with {!hold_cap} arrivals already held: refused *)

val accept : 'a rx -> seq:int -> 'a -> advance:(int -> unit) -> deliver:('a -> unit) -> verdict
(** Feed one arrival through the window. An in-order arrival, and then
    every held one it unblocks, is delivered in sequence order; before
    each [deliver] the watermark moves past it and [advance] is called
    with the new watermark — so a journal written from inside [deliver]
    follows the record of the advance that covers it. *)

val raise_expected : 'a rx -> int -> bool
(** Monotonic watermark restore; held arrivals below the new watermark
    are discarded. Returns whether it moved. Delivers nothing. *)

val reset_rx : 'a rx -> unit
(** Back to the base with an empty window, as a crash of the receiver
    does. *)

(** {2 Channel state as data}

    A node's durable channel state is one row per channel it sends on
    ([peer], [next_seq], and — for {!Socket} — the cumulative [acked]
    watermark) and one per channel it receives on ([peer], [expected]).
    The held window is never saved: held arrivals are unacked, so the
    peers' retransmissions rebuild it. Both formats are a magic string
    and two lists of varint rows, sorted by peer, with zero-state rows
    (still at the base, nothing acked) skipped. *)

type format =
  | Rel_v1  (** ["dpc-rel-v1"]: send rows [peer, next_seq] ({!Reliable}) *)
  | Chan_v1  (** ["dpc-chan-v1"]: send rows [peer, next_seq, acked] ({!Socket}) *)

val encode : format -> sends:(int * tx * int) list -> recvs:(int * 'a rx) list -> string
(** [sends] are [(peer, tx, acked)], [recvs] are [(peer, rx)]. [Rel_v1]
    does not write [acked]. *)

val decode : format -> string -> (int * int * int) list * (int * int) list
(** The rows of an {!encode} blob: [(peer, next_seq, acked)] (acked [0]
    under [Rel_v1]) and [(peer, expected)].
    @raise Dpc_util.Serialize.Corrupt on a wrong magic or a malformed
    blob. *)

(** {2 The channel-state handle}

    The one seam through which the runtime's WAL replay and the durable
    layer (checkpoint, crash, rebuild) reach whichever backend owns the
    channels. {!Reliable.channels} and {!Socket.channels} fill it. *)

type event =
  | Next_seq of { src : int; dst : int; seq : int }
      (** channel [(src, dst)]: the sender's next unused sequence advanced
          to [seq] — durable state of node [src] *)
  | Expected of { src : int; dst : int; seq : int }
      (** channel [(src, dst)]: the receiver's watermark advanced to
          [seq] — durable state of node [dst] *)

type handle = {
  snapshot : node:int -> string option;
      (** the node's channel state, or [None] where this backend keeps
          none for it *)
  restore : node:int -> string -> unit;
      (** apply a [snapshot] monotonically, so an old one over fresher
          state is a no-op. @raise Dpc_util.Serialize.Corrupt *)
  raise_next_seq : src:int -> dst:int -> int -> unit;
  raise_expected : src:int -> dst:int -> int -> unit;
  forget : node:int -> unit;  (** wipe the node's volatile channel state *)
  observe : (event -> unit) -> unit;
      (** install the callback that sees sequence-state advances, for
          write-ahead logging;
          [Expected] fires before the delivery it covers *)
}

val stateless : handle
(** The handle of a transport with no channel layer: no state, no
    events. *)
