type config = {
  timeout : float;
  backoff : float;
  max_timeout : float;
  max_retries : int;
  jitter : float;
}

let default_config =
  { timeout = 0.05; backoff = 2.0; max_timeout = 1.0; max_retries = 20; jitter = 0.0 }

(* Sequence number (and a little framing) on every data message; an ack
   carries the channel id and the sequence it confirms. A heal probe is a
   bare channel id + nonce, answered by an equally small pong. *)
let data_header_bytes = 8
let ack_bytes = 12
let probe_bytes = 10

(* The retransmit (and probe) delay for the [attempt]th try: capped
   exponential backoff, optionally pulled earlier by a deterministic
   per-channel hash — no shared random stream, so sharded runs and
   re-runs see the identical schedule. The jittered delay lives in
   [(1 - jitter) * capped, capped]: different channels de-synchronize,
   which is what stops a healing partition from turning every suspended
   sender's timer into one synchronized retransmit storm. *)
let backoff_delay config ~src ~dst ~attempt =
  let capped =
    Float.min (config.timeout *. (config.backoff ** float_of_int (attempt - 1))) config.max_timeout
  in
  if config.jitter <= 0.0 then capped
  else
    let u = Transport.channel_unit_hash ~seed:0x7ea1 ~src ~dst ~n:attempt in
    capped *. (1.0 -. (config.jitter *. u))

(* The sender's half of one directed (src, dst) channel: its sequence
   numbers plus the suspension state. A suspended channel has burned its
   retry budget: instead of dropping the unacked tail it parks each
   message's re-offer thunk here (keyed by seq, re-run in seq order on
   resurrection) and keeps exactly one heal-probe loop alive until the
   link answers. [probe_gen] invalidates stale probe timers across
   resurrect/forget boundaries. The receiver's half is a [Chan.rx]
   holding delivery closures. Under a sharded transport the two halves
   live on different domains: the sender's shard only touches this
   record, the receiver's only the window. *)
type sender = {
  tx : Chan.tx;
  mutable suspended : bool;
  mutable parked : (int * (unit -> unit)) list;
  mutable probe_gen : int;
}

type stats = {
  data_msgs : int;
  data_bytes : int;
  retransmits : int;
  retransmit_bytes : int;
  acks : int;
  ack_bytes_total : int;
  dup_dropped : int;
  held : int;
  overflow_dropped : int;
  abandoned : int;
  suspensions : int;
  resurrections : int;
  parked : int;
  probes : int;
}

type t = {
  inner : Transport.t;
  config : config;
  metrics : (int -> Dpc_util.Metrics.t) option;
  (* The full [src][dst] endpoint matrix, allocated eagerly: channel
     lookup never mutates a shared table, so concurrent shards cannot
     race on it. A few MB at the paper's 125 nodes. *)
  senders : sender array array;
  receivers : (unit -> unit) Chan.rx array array;
  mutable persist : (Chan.event -> unit) option;
  (* Cluster-wide accounting; senders on every shard bump these. *)
  data_msgs : int Atomic.t;
  data_bytes : int Atomic.t;
  retransmits : int Atomic.t;
  retransmit_bytes : int Atomic.t;
  acks : int Atomic.t;
  ack_bytes_total : int Atomic.t;
  dup_dropped : int Atomic.t;
  held : int Atomic.t;
  overflow_dropped : int Atomic.t;
  abandoned : int Atomic.t;
  suspensions : int Atomic.t;
  resurrections : int Atomic.t;
  parked_total : int Atomic.t;
  probes : int Atomic.t;
}

let wrap ?(config = default_config) ?metrics inner =
  if config.timeout <= 0.0 then invalid_arg "Reliable.wrap: timeout must be positive";
  if config.backoff < 1.0 then invalid_arg "Reliable.wrap: backoff must be >= 1";
  if config.max_retries < 0 then invalid_arg "Reliable.wrap: negative max_retries";
  if config.jitter < 0.0 || config.jitter >= 1.0 then
    invalid_arg "Reliable.wrap: jitter must be in [0, 1)";
  let n = Transport.nodes inner in
  {
    inner;
    config;
    metrics;
    senders =
      Array.init n (fun _ ->
        Array.init n (fun _ ->
          { tx = Chan.tx ~base:0; suspended = false; parked = []; probe_gen = 0 }));
    receivers = Array.init n (fun _ -> Array.init n (fun _ -> Chan.rx ~base:0));
    persist = None;
    data_msgs = Atomic.make 0;
    data_bytes = Atomic.make 0;
    retransmits = Atomic.make 0;
    retransmit_bytes = Atomic.make 0;
    acks = Atomic.make 0;
    ack_bytes_total = Atomic.make 0;
    dup_dropped = Atomic.make 0;
    held = Atomic.make 0;
    overflow_dropped = Atomic.make 0;
    abandoned = Atomic.make 0;
    suspensions = Atomic.make 0;
    resurrections = Atomic.make 0;
    parked_total = Atomic.make 0;
    probes = Atomic.make 0;
  }

let tick t node ?by name =
  match t.metrics with None -> () | Some f -> Dpc_util.Metrics.incr (f node) ?by name

let persist t ev = match t.persist with None -> () | Some f -> f ev

(* ---- suspension + resurrection ----------------------------------- *)

(* The heal-probe loop: one per suspended channel, started on the
   suspension transition. A probe is a tiny Hello-style ping through the
   inner transport, answered by an equally tiny pong; no pong by the next
   capped-backoff deadline means probe again. Both legs cross the real
   (possibly partitioned) wire, so a one-way outage that lets data
   through but eats the reverse path keeps the channel suspended — which
   is right, because acks would be eaten too. The loop dies via
   [probe_gen] when the channel is resurrected or wiped by a crash. *)
let rec probe t ~src ~dst ch ~gen n =
  Atomic.incr t.probes;
  tick t src "net.probes";
  let pong = ref false in
  Transport.send t.inner ~src ~dst ~bytes:probe_bytes (fun () ->
    Transport.send t.inner ~src:dst ~dst:src ~bytes:probe_bytes (fun () -> pong := true));
  let delay = backoff_delay t.config ~src ~dst ~attempt:n in
  Transport.schedule_on t.inner ~node:src ~delay (fun () ->
    if ch.suspended && ch.probe_gen = gen then
      if !pong then resurrect t ~src ~dst ch else probe t ~src ~dst ch ~gen (n + 1))

(* Resurrection: the probe got its pong, so the link is back. Re-offer
   the parked tail in sequence order — the receiver's dedup/reorder
   window makes the re-offers land with exactly-once FIFO effects even
   if an old in-flight copy races them. *)
and resurrect t ~src ~dst:_ ch =
  ch.suspended <- false;
  ch.probe_gen <- ch.probe_gen + 1;
  Atomic.incr t.resurrections;
  tick t src "net.resurrections";
  let backlog = List.sort (fun (a, _) (b, _) -> compare a b) ch.parked in
  ch.parked <- [];
  List.iter
    (fun (_, resume) ->
      Atomic.decr t.abandoned;
      resume ())
    backlog

let suspend t ~src ~dst ch =
  if not ch.suspended then begin
    ch.suspended <- true;
    ch.probe_gen <- ch.probe_gen + 1;
    Atomic.incr t.suspensions;
    tick t src "net.suspensions";
    probe t ~src ~dst ch ~gen:ch.probe_gen 1
  end

let send t ~src ~dst ~bytes k =
  let ch = t.senders.(src).(dst) in
  let rx = t.receivers.(src).(dst) in
  let seq = Chan.assign ch.tx in
  persist t (Chan.Next_seq { src; dst; seq = Chan.next_seq ch.tx });
  let wire = bytes + data_header_bytes in
  let acked = ref false in
  let attempts = ref 0 in
  let first = ref true in
  (* Receiver side: dedup and reorder through the window, then ack the
     cumulative watermark — but only when it covers this arrival. A
     delivered or below-watermark duplicate arrival is acked (the sender
     may have missed an earlier ack); a HELD arrival is not, because the
     receiver's window is volatile: if the receiver crashes, everything
     parked behind the gap dies with it, and only the unacked senders'
     retransmissions bring it back. A held message therefore costs one
     extra retransmission in the fault-free case — the price of making
     the ack a durable promise. *)
  let advance expected = persist t (Chan.Expected { src; dst; seq = expected }) in
  let deliver () =
    (match Chan.accept rx ~seq k ~advance ~deliver:(fun k -> k ()) with
    | Delivered -> ()
    | Duplicate ->
        Atomic.incr t.dup_dropped;
        tick t dst "net.dup_dropped"
    | Held ->
        Atomic.incr t.held;
        tick t dst "net.held"
    | Overflow ->
        Atomic.incr t.overflow_dropped;
        tick t dst "net.overflow_dropped");
    if Chan.covers rx seq then begin
      Atomic.incr t.acks;
      ignore (Atomic.fetch_and_add t.ack_bytes_total ack_bytes);
      tick t dst "net.acks_sent";
      tick t dst ~by:ack_bytes "net.ack_bytes";
      Transport.send t.inner ~src:dst ~dst:src ~bytes:ack_bytes (fun () -> acked := true)
    end
  in
  let rec transmit () =
    incr attempts;
    if !first then begin
      first := false;
      Atomic.incr t.data_msgs;
      ignore (Atomic.fetch_and_add t.data_bytes wire);
      tick t src "net.data_msgs"
    end
    else begin
      Atomic.incr t.retransmits;
      ignore (Atomic.fetch_and_add t.retransmit_bytes wire);
      tick t src "net.retransmits";
      tick t src ~by:wire "net.retransmit_bytes"
    end;
    Transport.send t.inner ~src ~dst ~bytes:wire deliver;
    (* Arm the ack timeout for this attempt, on the sender's own shard:
       the timer closure reads [acked]/[attempts], which the sender owns.
       There is no cancellation: an acked timer just fires and finds
       nothing to do. *)
    let delay = backoff_delay t.config ~src ~dst ~attempt:!attempts in
    Transport.schedule_on t.inner ~node:src ~delay (fun () ->
      if not !acked then
        if ch.suspended || !attempts > t.config.max_retries then park ()
        else transmit ())
  (* Out of retry budget (or the channel already gave up): park the
     re-offer instead of dropping the message, and make sure the heal
     probe is running. [abandoned] counts the currently-parked backlog —
     it drains back to zero when the channel resurrects, so a healthy
     (eventually-healed) run still ends with [abandoned = 0]. *)
  and park () =
    ch.parked <- (seq, fun () -> attempts := 0; transmit ()) :: ch.parked;
    Atomic.incr t.abandoned;
    Atomic.incr t.parked_total;
    tick t src "net.parked";
    suspend t ~src ~dst ch
  in
  if ch.suspended then park () else transmit ()

(* ------------------------------------------------------------------ *)
(* Crash support: channel sequence state as data. Restoring the watermark
   is the whole recovery handshake: a retransmission below it is acked as
   a duplicate (filling the sender's missed ack), one at it is delivered,
   and the sender's restored [next_seq] keeps new messages from reusing
   sequence numbers the peer has already seen. *)

let set_next_seq t ~src ~dst seq =
  if Chan.raise_next_seq t.senders.(src).(dst).tx seq then
    persist t (Chan.Next_seq { src; dst; seq })

let set_expected t ~src ~dst seq =
  if Chan.raise_expected t.receivers.(src).(dst) seq then
    persist t (Chan.Expected { src; dst; seq })

let forget t ~node =
  (* Mutate the existing channel records in place: in-flight retransmit
     and delivery closures captured them, and must observe the wipe. *)
  for peer = 0 to Array.length t.senders - 1 do
    let out = t.senders.(node).(peer) in
    Chan.reset_tx out.tx;
    (* A crash loses the parked tail with the rest of the volatile send
       state (the durable outbox re-offers it); kill the probe loop and
       drain the parked backlog out of [abandoned]. *)
    out.suspended <- false;
    out.probe_gen <- out.probe_gen + 1;
    List.iter (fun _ -> Atomic.decr t.abandoned) out.parked;
    out.parked <- [];
    Chan.reset_rx t.receivers.(peer).(node)
  done

let channels t : Chan.handle =
  {
    snapshot =
      (fun ~node ->
        (* Only the channels that moved off sequence 0 become rows: a cut
           is taken every few operations, and a node talks to few of its
           peers. *)
        let sends = ref [] and recvs = ref [] in
        for p = Array.length t.senders - 1 downto 0 do
          let tx = t.senders.(node).(p).tx and rx = t.receivers.(p).(node) in
          if Chan.next_seq tx > 0 then sends := (p, tx, 0) :: !sends;
          if Chan.expected rx > 0 then recvs := (p, rx) :: !recvs
        done;
        Some (Chan.encode Rel_v1 ~sends:!sends ~recvs:!recvs));
    restore =
      (fun ~node blob ->
        let sends, recvs = Chan.decode Rel_v1 blob in
        List.iter (fun (dst, seq, _) -> set_next_seq t ~src:node ~dst seq) sends;
        List.iter (fun (src, seq) -> set_expected t ~src ~dst:node seq) recvs);
    raise_next_seq = set_next_seq t;
    raise_expected = set_expected t;
    forget = forget t;
    observe = (fun f -> t.persist <- Some f);
  }

let transport t = Transport.intercept t.inner ~name:"reliable" ~send:(send t)

let stats t : stats =
  {
    data_msgs = Atomic.get t.data_msgs;
    data_bytes = Atomic.get t.data_bytes;
    retransmits = Atomic.get t.retransmits;
    retransmit_bytes = Atomic.get t.retransmit_bytes;
    acks = Atomic.get t.acks;
    ack_bytes_total = Atomic.get t.ack_bytes_total;
    dup_dropped = Atomic.get t.dup_dropped;
    held = Atomic.get t.held;
    overflow_dropped = Atomic.get t.overflow_dropped;
    abandoned = Atomic.get t.abandoned;
    suspensions = Atomic.get t.suspensions;
    resurrections = Atomic.get t.resurrections;
    parked = Atomic.get t.parked_total;
    probes = Atomic.get t.probes;
  }

let suspended_channels t =
  Array.fold_left
    (Array.fold_left (fun count (ch : sender) -> if ch.suspended then count + 1 else count))
    0 t.senders
