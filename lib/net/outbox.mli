(** The durable outbox: the sender-side ledger of a {!Socket}.

    The persist-before-send half of real-process exactly-once: a send's
    [Send] record reaches the ledger file (and the kernel) before the
    frame's first transmission, so a sender crash can delay an outgoing
    message but never lose it — a restarted {!Socket} over the same file
    re-offers the unacked tail and the receiver's dedup window absorbs
    the overlap. The ledger is the only place a socket keeps its unacked
    frames and ack watermarks.

    [dpc-outbox-v1] on disk: an append-only run of Send / Ack / Mark
    records; a torn tail (the kill landed mid-append) is dropped at load,
    which is safe because an unfinished record's frame was never
    transmitted. *)

type t

val open_ : dir:string -> t
(** Load (or create) [dir]/outbox.log, creating [dir] if needed.
    @raise Dpc_util.Serialize.Corrupt on an unreadable header. *)

val record_send : t -> dst:int -> seq:int -> string -> unit
(** Append one send, write-through. Call BEFORE first transmission. *)

val record_ack : t -> dst:int -> seq:int -> unit
(** Cumulative: [seq] and below are delivered; their payloads leave the
    pending tail and become reclaimable by {!compact}. No-op if not an
    advance. *)

val iter_pending : t -> dst:int -> (int -> string -> unit) -> unit
(** The recorded-but-unacked sends toward [dst] as [seq payload], in
    sequence order — the frames to (re)transmit. *)

val pending : t -> (int * int * string) list
(** Every recorded-but-unacked send as [(dst, seq, payload)], sorted. *)

val has_pending : t -> dst:int -> bool

val unacked : t -> int
(** Pending sends across all channels (the outbox depth). *)

val next_seq : t -> dst:int -> int
(** 1 + the highest sequence ever recorded toward [dst] — the durable
    channel cursor a restarted sender resumes from. *)

val acked : t -> dst:int -> int

val compact : t -> unit
(** Atomically rewrite the ledger as per-channel [Mark] summaries plus
    the pending payloads, dropping acked ones. *)

val size_bytes : t -> int
val close : t -> unit
