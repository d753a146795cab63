module Socket = Dpc_net.Socket
module Outbox = Dpc_net.Outbox
module Backend = Dpc_core.Backend
module Durable = Dpc_core.Durable
module Runtime = Dpc_engine.Runtime
module Tuple = Dpc_ndlog.Tuple

type t = {
  sock : Socket.t;
  outbox : Outbox.t;
  runtime : Runtime.t;
  backend : Backend.t;
  durable : Durable.t;
  local : int;
}

(* The simulator's crash switchboard has no meaning here: the "crash" of a
   real node is the process dying, and recovery happens at the next
   [create] in a fresh process. *)
let real_process_control : Dpc_net.Transport.crash_control =
  {
    crash = ignore;
    restart = ignore;
    is_up = (fun _ -> true);
    crash_stats = { crashes = Atomic.make 0; suppressed = Atomic.make 0 };
  }

let default_config = { Durable.checkpoint_every = 4; rebase_every = 2 }

let rec create ~scheme ~nodes ~local ~addr_of ~dir ?(config = default_config) ?chaos () =
  let delp = Dpc_apps.Forwarding.delp () in
  let env = Dpc_apps.Forwarding.env in
  let backend = Backend.make scheme ~delp ~env ~nodes in
  let outbox = Outbox.open_ ~dir:(Durable.node_dir dir local) in
  let sock = Socket.create ~nodes ~local ~addr_of ~outbox () in
  (match chaos with
  | Some (fault_config, seed) -> Socket.set_chaos sock ~config:fault_config ~seed
  | None -> ());
  let runtime =
    Runtime.create ~transport:(Socket.transport sock) ~delp ~env ~hook:(Backend.hook backend)
      ~nodes:(Backend.nodes backend) ()
  in
  (* Checkpoint cuts carry the transport's channel state, recovery pushes
     the newest cut's blob back and replays the journaled watermarks, and
     every watermark advance is journaled — all through this handle. *)
  Runtime.set_channels runtime (Socket.channels sock);
  let durable =
    Durable.attach ~backend ~runtime ~control:real_process_control ~config ~disk:dir
      ~disk_nodes:(fun node -> node = local)
      ()
  in
  Runtime.set_remote runtime
    ~is_local:(fun node -> node = local)
    ~ship:(fun ~dst ~bytes:_ ~payload -> Socket.send_payload sock ~dst payload)
    ~replayed:(fun ~dst ~payload -> Socket.reoffer sock ~dst payload);
  (* An ack and a ledger record are durable promises: the WAL holding
     their cause is flushed first. *)
  Socket.set_sync sock (fun () -> Durable.flush_wal durable local);
  Socket.set_deliver sock (fun ~src:_ ~payload -> Runtime.deliver_remote runtime ~node:local payload);
  let t = { sock; outbox; runtime; backend; durable; local } in
  if Durable.recovered durable local then Durable.recover durable local;
  Socket.set_control sock (fun ~payload ~reply -> handle_control t ~payload ~reply);
  t

and handle_control t ~payload ~reply =
  let respond r = reply (Ctrl.encode_reply r) in
  let homed_here tuple what k =
    if Tuple.loc tuple <> t.local then
      respond
        (Ctrl.Error
           (Printf.sprintf "%s %s is homed at node %d, not this daemon (node %d)" what
              (Tuple.to_string tuple) (Tuple.loc tuple) t.local))
    else k ()
  in
  match Ctrl.decode_request payload with
  | exception exn -> respond (Ctrl.Error (Printexc.to_string exn))
  | Ctrl.Load tuples ->
      Runtime.load_slow t.runtime tuples;
      respond Ctrl.Ok
  | Ctrl.Inject event ->
      homed_here event "input event" (fun () ->
          Runtime.inject t.runtime event;
          respond Ctrl.Ok)
  | Ctrl.Slow_insert tuple ->
      homed_here tuple "slow tuple" (fun () ->
          Runtime.insert_slow_runtime t.runtime tuple;
          respond Ctrl.Ok)
  | Ctrl.Slow_delete tuple ->
      homed_here tuple "slow tuple" (fun () ->
          respond (Ctrl.Deleted (Runtime.delete_slow_runtime t.runtime tuple)))
  | Ctrl.Checkpoint ->
      Durable.checkpoint_now t.durable t.local;
      respond Ctrl.Ok
  | Ctrl.Status ->
      let s = Socket.stats t.sock in
      let rs = Runtime.stats t.runtime in
      respond
        (Ctrl.Status_r
           {
             node = t.local;
             recovered = Durable.recovered t.durable t.local;
             unacked = Socket.unacked t.sock;
             data_sent = s.data_sent;
             data_received = s.data_received;
             fired = rs.fired;
             outputs = rs.outputs;
             wal_entries = (Durable.node_stats t.durable t.local).wal_entries;
             outbox_bytes = Outbox.size_bytes t.outbox;
           })
  | Ctrl.Digest ->
      respond
        (Ctrl.Digest_r
           {
             node = t.local;
             store = Backend.digest_node t.backend t.local;
             db = Scenario.db_digest (Runtime.db t.runtime t.local);
           })
  | Ctrl.Shutdown -> Socket.stop t.sock
  | Ctrl.Compact ->
      Outbox.compact t.outbox;
      respond Ctrl.Ok
  | Ctrl.Block peer -> (
      match Socket.set_peer_blocked t.sock ~peer true with
      | () -> respond Ctrl.Ok
      | exception Invalid_argument msg -> respond (Ctrl.Error msg))
  | Ctrl.Unblock peer -> (
      match Socket.set_peer_blocked t.sock ~peer false with
      | () -> respond Ctrl.Ok
      | exception Invalid_argument msg -> respond (Ctrl.Error msg))

let serve t =
  Runtime.run t.runtime;
  Socket.close t.sock

let socket t = t.sock
let runtime t = t.runtime
let durable t = t.durable
