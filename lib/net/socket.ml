module Clock = Dpc_util.Clock

(* Unacked-frame rescan period and the delay before re-dialing a failed
   peer connection, seconds. *)
let retransmit_every = 0.25
let dial_retry = 0.2

type stats = {
  data_sent : int;
  data_received : int;
  retransmits : int;
  dup_dropped : int;
  held : int;
  overflow_dropped : int;
  acks_sent : int;
  reconnects : int;
  chaos_dropped : int;
  chaos_duplicated : int;
  chaos_delayed : int;
  blocked_drops : int;
}

let resolve host =
  try Unix.inet_addr_of_string host
  with _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with _ -> invalid_arg (Printf.sprintf "Socket: cannot resolve host %S" host))

let sockaddr s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then invalid_arg "Socket: empty unix path";
      Unix.ADDR_UNIX path
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j ->
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          (match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Unix.ADDR_INET (resolve host, p)
          | _ -> invalid_arg (Printf.sprintf "Socket: bad port in %S" s))
      | None -> invalid_arg (Printf.sprintf "Socket: tcp address %S needs host:port" s))
  | _ -> invalid_arg (Printf.sprintf "Socket: address %S is not unix:<path> or tcp:<host>:<port>" s)

type conn = {
  fd : Unix.file_descr;
  decoder : Wire.Decoder.t;
  outq : string Queue.t;  (* encoded frames awaiting the wire *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable peer : int;  (* -1 until the hello arrives *)
  mutable connecting : bool;  (* outgoing dial, connect not yet resolved *)
  mutable closed : bool;
  outbound_to : int option;  (* [Some dst] on our dial to a peer *)
}

type in_chan = { rx : string Chan.rx; mutable ack_due : bool }

type t = {
  nodes : int;
  local : int;
  addrs : Unix.sockaddr array;
  epoch : float;
  listen_fd : Unix.file_descr;
  listen_path : string option;
  scratch : Bytes.t;
  mutable conns : conn list;
  out_conns : (int, conn) Hashtbl.t;
  redial_armed : (int, unit) Hashtbl.t;
  (* The sender side: per-destination sequence cursors (1-based), and
     the ledger holding every unacked frame and ack watermark. *)
  txs : Chan.tx array;
  outbox : Outbox.t;
  in_chans : (int, in_chan) Hashtbl.t;
  timers : Event_queue.t;
  mutable deliver : (src:int -> payload:string -> unit) option;
  mutable control : (payload:string -> reply:(string -> unit) -> unit) option;
  mutable chan_persist : (Chan.event -> unit) option;
  mutable sync : (unit -> unit) option;
  mutable delivered_any : bool;
  mutable stopped : bool;
  mutable bytes_total : int;
  mutable msgs_total : int;
  mutable m_data_sent : int;
  mutable m_data_received : int;
  mutable m_retransmits : int;
  mutable m_dup_dropped : int;
  mutable m_held : int;
  mutable m_overflow_dropped : int;
  mutable m_acks_sent : int;
  mutable m_reconnects : int;
  (* Injectable link faults: [blocked] peers are a process-level partition
     (dials refused, established connections dropped, inbound frames
     eaten); [chaos] corrupts outgoing data frames the way
     [Transport.faulty] corrupts simulated sends. *)
  blocked : (int, unit) Hashtbl.t;
  mutable chaos : (src:int -> dst:int -> bytes:int -> Transport.fault) option;
  mutable m_chaos_dropped : int;
  mutable m_chaos_duplicated : int;
  mutable m_chaos_delayed : int;
  mutable m_blocked_drops : int;
}

let now t = Clock.now () -. t.epoch

let schedule_at t at fn = Event_queue.schedule_at t.timers at fn

(* The cursor never trails the ledger: a send the ledger holds has taken
   its sequence, whichever process recorded it. *)
let tx_of t dst =
  let tx = t.txs.(dst) in
  ignore (Chan.raise_next_seq tx (Outbox.next_seq t.outbox ~dst));
  tx

let in_chan_of t src =
  match Hashtbl.find_opt t.in_chans src with
  | Some ch -> ch
  | None ->
      let ch = { rx = Chan.rx ~base:1; ack_due = false } in
      Hashtbl.replace t.in_chans src ch;
      ch

let conn_alive c = not (c.closed || c.connecting)

let outq_bytes c = Queue.fold (fun acc s -> acc + String.length s) (-c.out_off) c.outq

(* ---- wire I/O ------------------------------------------------------- *)

let rec flush_conn t c =
  if (not c.closed) && not (Queue.is_empty c.outq) then begin
    let head = Queue.peek c.outq in
    let len = String.length head - c.out_off in
    match Unix.write_substring c.fd head c.out_off len with
    | n ->
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          flush_conn t c
        end
        else c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn t c
  end

and close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    match c.outbound_to with
    | Some dst ->
        (match Hashtbl.find_opt t.out_conns dst with
        | Some c' when c' == c -> Hashtbl.remove t.out_conns dst
        | _ -> ());
        arm_redial t dst
    | None -> ()
  end

and arm_redial t dst =
  if not (Hashtbl.mem t.redial_armed dst) then begin
    Hashtbl.replace t.redial_armed dst ();
    schedule_at t
      (now t +. dial_retry)
      (fun () ->
        Hashtbl.remove t.redial_armed dst;
        if want_peer t dst then ensure_dial t dst)
  end

(* A peer is worth (re)dialing while we owe it data or acks. *)
and want_peer t dst =
  Outbox.has_pending t.outbox ~dst || Hashtbl.mem t.in_chans dst

and ensure_dial t dst =
  if
    dst <> t.local && dst >= 0 && dst < t.nodes
    && (not (Hashtbl.mem t.out_conns dst))
    && not (Hashtbl.mem t.blocked dst)
  then begin
    let sa = t.addrs.(dst) in
    let domain = Unix.domain_of_sockaddr sa in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    let mk connecting =
      {
        fd;
        decoder = Wire.Decoder.create ();
        outq = Queue.create ();
        out_off = 0;
        peer = dst;
        connecting;
        closed = false;
        outbound_to = Some dst;
      }
    in
    match Unix.connect fd sa with
    | () ->
        let c = mk false in
        t.conns <- c :: t.conns;
        Hashtbl.replace t.out_conns dst c;
        dial_connected t dst c
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) ->
        let c = mk true in
        t.conns <- c :: t.conns;
        Hashtbl.replace t.out_conns dst c
    | exception Unix.Unix_error (_, _, _) ->
        (try Unix.close fd with _ -> ());
        arm_redial t dst
  end

and enqueue_frame t c frame_bytes =
  if not c.closed then begin
    Queue.push frame_bytes c.outq;
    flush_conn t c
  end

and dial_connected t dst c =
  t.m_reconnects <- t.m_reconnects + 1;
  enqueue_frame t c (Wire.encode { kind = Hello; src = t.local; dst; seq = 0; payload = "" });
  resend_unacked t dst ~count_retransmits:false;
  match Hashtbl.find_opt t.in_chans dst with
  | Some ch ->
      ch.ack_due <- false;
      send_ack_frame t dst c ch
  | None -> ()

and resend_unacked t dst ~count_retransmits =
  Outbox.iter_pending t.outbox ~dst (fun seq payload ->
      if count_retransmits then t.m_retransmits <- t.m_retransmits + 1;
      transmit_data t dst (Wire.encode { kind = Data; src = t.local; dst; seq; payload }))

(* Every outgoing data frame funnels through here so link chaos has one
   injection point. A dropped frame never reaches the wire — it stays in
   the ledger and the retransmit scan re-offers it; a duplicate is
   enqueued twice (the peer's dedup window eats the copy); a delayed
   frame is re-offered by a timer, re-checking the connection then. *)
and transmit_data t dst wire =
  let enqueue () =
    match Hashtbl.find_opt t.out_conns dst with
    | Some c when conn_alive c -> enqueue_frame t c wire
    | Some _ -> ()
    | None -> ensure_dial t dst
  in
  match t.chaos with
  | None -> enqueue ()
  | Some decide -> (
      match decide ~src:t.local ~dst ~bytes:(String.length wire) with
      | Transport.F_deliver -> enqueue ()
      | Transport.F_drop -> t.m_chaos_dropped <- t.m_chaos_dropped + 1
      | Transport.F_duplicate ->
          t.m_chaos_duplicated <- t.m_chaos_duplicated + 1;
          enqueue ();
          enqueue ()
      | Transport.F_delay extra ->
          t.m_chaos_delayed <- t.m_chaos_delayed + 1;
          schedule_at t (now t +. extra) enqueue)

and send_ack_frame t peer c ch =
  t.m_acks_sent <- t.m_acks_sent + 1;
  enqueue_frame t c
    (Wire.encode
       { kind = Ack; src = t.local; dst = peer; seq = Chan.expected ch.rx - 1; payload = "" })

let send_ack t peer =
  let ch = in_chan_of t peer in
  match Hashtbl.find_opt t.out_conns peer with
  | Some c when conn_alive c ->
      ch.ack_due <- false;
      send_ack_frame t peer c ch
  | _ ->
      ch.ack_due <- true;
      ensure_dial t peer

(* ---- the data plane -------------------------------------------------- *)

let check_remote t fn dst =
  if dst < 0 || dst >= t.nodes then invalid_arg (fn ^ ": destination out of range");
  if dst = t.local then invalid_arg (fn ^ ": local destination goes through Transport.send")

let sync t = match t.sync with Some f -> f () | None -> ()

let send_payload t ~dst payload =
  check_remote t "Socket.send_payload" dst;
  let seq = Chan.assign (tx_of t dst) in
  (* The host's write-ahead log holds this send's cause (the arrival or
     input being processed right now); it reaches disk before the ledger
     promises the send, so no record outlives its origin. *)
  sync t;
  Outbox.record_send t.outbox ~dst ~seq payload;
  t.m_data_sent <- t.m_data_sent + 1;
  t.msgs_total <- t.msgs_total + 1;
  let wire = Wire.encode { kind = Data; src = t.local; dst; seq; payload } in
  t.bytes_total <- t.bytes_total + String.length wire;
  transmit_data t dst wire

let handle_frame t c (f : Wire.frame) =
  match f.kind with
  | Hello ->
      c.peer <- f.src;
      (* A blocked peer's dial is refused at the handshake: the partition
         is symmetric from this endpoint's point of view. *)
      if Hashtbl.mem t.blocked f.src then close_conn t c
  | Data when Hashtbl.mem t.blocked f.src ->
      t.m_blocked_drops <- t.m_blocked_drops + 1
  | Data ->
      if f.dst = t.local then begin
        let ch = in_chan_of t f.src in
        let advance seq =
          match t.chan_persist with
          | Some p -> p (Chan.Expected { src = f.src; dst = t.local; seq })
          | None -> ()
        in
        let deliver payload =
          t.m_data_received <- t.m_data_received + 1;
          t.delivered_any <- true;
          match t.deliver with Some d -> d ~src:f.src ~payload | None -> ()
        in
        (match Chan.accept ch.rx ~seq:f.seq f.payload ~advance ~deliver with
        | Delivered -> ()
        | Duplicate -> t.m_dup_dropped <- t.m_dup_dropped + 1
        | Held -> t.m_held <- t.m_held + 1
        | Overflow -> t.m_overflow_dropped <- t.m_overflow_dropped + 1);
        if Chan.covers ch.rx f.seq then ch.ack_due <- true
      end
  | Ack when Hashtbl.mem t.blocked f.src ->
      t.m_blocked_drops <- t.m_blocked_drops + 1
  | Ack -> Outbox.record_ack t.outbox ~dst:f.src ~seq:f.seq
  | Ctrl -> (
      match t.control with
      | Some h ->
          let reply s =
            enqueue_frame t c
              (Wire.encode { kind = Ctrl; src = t.local; dst = Wire.control_id; seq = f.seq; payload = s })
          in
          h ~payload:f.payload ~reply
      | None -> ())

let read_conn t c =
  let continue = ref true in
  while !continue && not c.closed do
    match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 ->
        close_conn t c;
        continue := false
    | n -> Wire.Decoder.feed c.decoder t.scratch 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> continue := false
    | exception Unix.Unix_error (_, _, _) ->
        close_conn t c;
        continue := false
  done;
  (* Drain complete frames; a corrupt stream drops the connection (the
     peer's retransmit discipline recovers anything undelivered). *)
  try
    let more = ref true in
    while !more && not c.closed do
      match Wire.Decoder.next c.decoder with
      | Some f -> handle_frame t c f
      | None -> more := false
    done
  with Wire.Corrupt _ -> close_conn t c

let accept_pending t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <-
          {
            fd;
            decoder = Wire.Decoder.create ();
            outq = Queue.create ();
            out_off = 0;
            peer = -1;
            connecting = false;
            closed = false;
            outbound_to = None;
          }
          :: t.conns
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

let check_connect t c =
  match Unix.getsockopt_error c.fd with
  | None ->
      c.connecting <- false;
      (match c.outbound_to with Some dst -> dial_connected t dst c | None -> ())
  | Some _ -> close_conn t c

(* After every receive batch: flush effects to disk, then let the acks out.
   The order is the whole point — an ack is a durable promise. *)
let finish_batch t =
  if t.delivered_any then begin
    sync t;
    t.delivered_any <- false
  end;
  Hashtbl.iter (fun src ch -> if ch.ack_due then send_ack t src) t.in_chans

let retransmit_scan t =
  for dst = 0 to t.nodes - 1 do
    if Outbox.has_pending t.outbox ~dst then
      match Hashtbl.find_opt t.out_conns dst with
      | Some c when conn_alive c ->
          (* Skip while a previous burst is still draining: re-queueing
             on a congested connection only amplifies the backlog. *)
          if outq_bytes c < 1 lsl 20 then resend_unacked t dst ~count_retransmits:true
      | Some _ -> ()
      | None -> ensure_dial t dst
  done;
  Hashtbl.iter
    (fun src ch ->
      if ch.ack_due then
        match Hashtbl.find_opt t.out_conns src with
        | Some c when conn_alive c ->
            ch.ack_due <- false;
            send_ack_frame t src c ch
        | _ -> ensure_dial t src)
    t.in_chans

let run_loop t ?until () =
  let horizon_open () = match until with Some u -> now t < u | None -> true in
  while (not t.stopped) && horizon_open () do
    Event_queue.run t.timers ~until:(now t);
    if (not t.stopped) && horizon_open () then begin
      let conns = t.conns in
      List.iter (fun c -> if (not c.closed) && not (Queue.is_empty c.outq) then flush_conn t c) conns;
      let rd =
        t.listen_fd
        :: List.filter_map (fun c -> if conn_alive c then Some c.fd else None) t.conns
      in
      let wr =
        List.filter_map
          (fun c ->
            if c.closed then None
            else if c.connecting || not (Queue.is_empty c.outq) then Some c.fd
            else None)
          t.conns
      in
      let tnow = now t in
      let timeout =
        let cap acc = function Some x -> Float.min acc x | None -> acc in
        let upper =
          cap (cap 0.05 (Option.map (fun u -> u -. tnow) until))
            (Option.map (fun at -> at -. tnow) (Event_queue.next_at t.timers))
        in
        Float.max 0. upper
      in
      match Unix.select rd wr [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.memq t.listen_fd readable then accept_pending t;
          let conn_of fd = List.find_opt (fun c -> c.fd == fd && not c.closed) t.conns in
          List.iter
            (fun fd ->
              match conn_of fd with
              | Some c when c.connecting -> check_connect t c
              | Some c -> flush_conn t c
              | None -> ())
            writable;
          List.iter
            (fun fd ->
              if fd != t.listen_fd then
                match conn_of fd with Some c when not c.connecting -> read_conn t c | _ -> ())
            readable;
          finish_batch t
    end
  done

(* ---- lifecycle ------------------------------------------------------- *)

let create ~nodes ~local ~addr_of ~outbox () =
  if nodes <= 0 then invalid_arg "Socket.create: nodes must be positive";
  if local < 0 || local >= nodes then invalid_arg "Socket.create: local node out of range";
  let addrs = Array.init nodes (fun i -> sockaddr (addr_of i)) in
  let sa = addrs.(local) in
  let listen_path = match sa with Unix.ADDR_UNIX p -> Some p | Unix.ADDR_INET _ -> None in
  (match listen_path with
  | Some p when Sys.file_exists p -> ( try Unix.unlink p with _ -> ())
  | _ -> ());
  let listen_fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (match sa with
  | Unix.ADDR_INET _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX _ -> ());
  (try
     Unix.bind listen_fd sa;
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let t =
    {
      nodes;
      local;
      addrs;
      epoch = Clock.now ();
      listen_fd;
      listen_path;
      scratch = Bytes.create 65536;
      conns = [];
      out_conns = Hashtbl.create 8;
      redial_armed = Hashtbl.create 8;
      txs = Array.init nodes (fun _ -> Chan.tx ~base:1);
      outbox;
      in_chans = Hashtbl.create 8;
      timers = Event_queue.create ();
      deliver = None;
      control = None;
      chan_persist = None;
      sync = None;
      delivered_any = false;
      stopped = false;
      bytes_total = 0;
      msgs_total = 0;
      m_data_sent = 0;
      m_data_received = 0;
      m_retransmits = 0;
      m_dup_dropped = 0;
      m_held = 0;
      m_overflow_dropped = 0;
      m_acks_sent = 0;
      m_reconnects = 0;
      blocked = Hashtbl.create 4;
      chaos = None;
      m_chaos_dropped = 0;
      m_chaos_duplicated = 0;
      m_chaos_delayed = 0;
      m_blocked_drops = 0;
    }
  in
  let rec scan () =
    if not t.stopped then begin
      retransmit_scan t;
      schedule_at t (now t +. retransmit_every) scan
    end
  in
  (* The first scan runs at once: a ledger left by an earlier process
     already owes its peers frames. *)
  schedule_at t 0.0 scan;
  t

let set_deliver t f = t.deliver <- Some f
let set_control t f = t.control <- Some f
let set_sync t f = t.sync <- Some f

let set_chaos t ~config ~seed =
  t.chaos <- Some (Transport.hashed_decide ~config ~seed ~nodes:t.nodes)

let clear_chaos t = t.chaos <- None

let set_peer_blocked t ~peer blocked =
  if peer < 0 || peer >= t.nodes || peer = t.local then
    invalid_arg "Socket.set_peer_blocked: peer out of range";
  if blocked && not (Hashtbl.mem t.blocked peer) then begin
    Hashtbl.replace t.blocked peer ();
    (* Cut the established paths both ways: our dial to the peer and any
       inbound connection it holds to us. Frames already buffered die
       with the connection; the peer's (and our) retransmit discipline
       recovers them after the heal. *)
    (match Hashtbl.find_opt t.out_conns peer with
    | Some c -> close_conn t c
    | None -> ());
    List.iter (fun c -> if c.peer = peer then close_conn t c) t.conns
  end
  else if (not blocked) && Hashtbl.mem t.blocked peer then begin
    Hashtbl.remove t.blocked peer;
    (* Heal: redial eagerly if we owe the peer anything; the reconnect
       handshake re-offers the whole unacked tail. *)
    if want_peer t peer then ensure_dial t peer
  end

let peer_blocked t ~peer = Hashtbl.mem t.blocked peer

(* Replay reconciliation. Replay regenerates a node's remote sends in
   channel order, starting at the restored cut's cursor, so each one is
   recognized by its position: one the ledger already holds needs
   nothing (it is acked, or pending and re-offered with the tail); one
   past the ledger's cursor is the crash window — its cause made the
   write-ahead log but the kill landed before the ledger append — and is
   recorded now, to ride out with the tail. *)
let reoffer t ~dst payload =
  check_remote t "Socket.reoffer" dst;
  let seq = Chan.assign t.txs.(dst) in
  if seq >= Outbox.next_seq t.outbox ~dst then Outbox.record_send t.outbox ~dst ~seq payload

let set_next_seq t ~dst v =
  if dst < 0 || dst >= t.nodes then
    raise (Dpc_util.Serialize.Corrupt (Printf.sprintf "channel state: peer %d out of range" dst));
  ignore (Chan.raise_next_seq t.txs.(dst) v)

let set_expected t ~src v = ignore (Chan.raise_expected (in_chan_of t src).rx v)

let channels t : Chan.handle =
  let here node = node = t.local in
  {
    snapshot =
      (fun ~node ->
        if not (here node) then None
        else
          let sends =
            List.filter_map
              (fun dst ->
                if dst = t.local then None
                else Some (dst, tx_of t dst, Outbox.acked t.outbox ~dst))
              (List.init t.nodes Fun.id)
          in
          let recvs = Hashtbl.fold (fun src ch l -> (src, ch.rx) :: l) t.in_chans [] in
          Some (Chan.encode Chan_v1 ~sends ~recvs));
    restore =
      (fun ~node blob ->
        if here node then begin
          let sends, recvs = Chan.decode Chan_v1 blob in
          (* The acked column is the ledger's, which is never behind it. *)
          List.iter (fun (dst, next_seq, _) -> set_next_seq t ~dst next_seq) sends;
          List.iter (fun (src, seq) -> set_expected t ~src seq) recvs
        end);
    raise_next_seq = (fun ~src ~dst v -> if here src then set_next_seq t ~dst v);
    raise_expected = (fun ~src ~dst v -> if here dst then set_expected t ~src v);
    forget =
      (fun ~node ->
        if here node then begin
          Array.iter Chan.reset_tx t.txs;
          Hashtbl.reset t.in_chans
        end);
    observe = (fun f -> t.chan_persist <- Some f);
  }

let unacked t = Outbox.unacked t.outbox

let stop t = t.stopped <- true

let close t =
  stop t;
  List.iter (fun c -> if not c.closed then (c.closed <- true; try Unix.close c.fd with _ -> ())) t.conns;
  t.conns <- [];
  Hashtbl.reset t.out_conns;
  (try Unix.close t.listen_fd with _ -> ());
  Outbox.close t.outbox;
  match t.listen_path with
  | Some p -> ( try Unix.unlink p with _ -> ())
  | None -> ()

let stats t =
  {
    data_sent = t.m_data_sent;
    data_received = t.m_data_received;
    retransmits = t.m_retransmits;
    dup_dropped = t.m_dup_dropped;
    held = t.m_held;
    overflow_dropped = t.m_overflow_dropped;
    acks_sent = t.m_acks_sent;
    reconnects = t.m_reconnects;
    chaos_dropped = t.m_chaos_dropped;
    chaos_duplicated = t.m_chaos_duplicated;
    chaos_delayed = t.m_chaos_delayed;
    blocked_drops = t.m_blocked_drops;
  }

let transport t : Transport.t =
  (module struct
    let name = "socket"
    let nodes = t.nodes
    let shards = 1
    let shard_of _ = 0
    let now () = now t

    let schedule ~delay fn =
      if delay < 0. then invalid_arg "Socket.schedule: negative delay";
      schedule_at t (now () +. delay) fn

    let schedule_on ~node:_ ~delay fn = schedule ~delay fn

    let send ~src:_ ~dst ~bytes fn =
      if dst <> t.local then
        failwith
          (Printf.sprintf
             "Socket transport hosts node %d only: dst %d needs the runtime remote hook \
              (closures cannot cross a process boundary)"
             t.local dst);
      t.msgs_total <- t.msgs_total + 1;
      t.bytes_total <- t.bytes_total + bytes;
      schedule_at t (now ()) fn

    let broadcast ~src:_ ~bytes fn =
      for dst = 0 to t.nodes - 1 do
        if dst = t.local then begin
          t.msgs_total <- t.msgs_total + 1;
          t.bytes_total <- t.bytes_total + bytes;
          schedule_at t (now ()) (fun () -> fn dst)
        end
        else
          failwith
            (Printf.sprintf
               "Socket transport hosts node %d only: broadcast to %d needs the runtime remote hook"
               t.local dst)
      done

    let run ?until () = run_loop t ?until ()
    let total_bytes () = t.bytes_total
    let messages () = t.msgs_total
  end : Transport.S)
