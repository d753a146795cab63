open Dpc_ndlog

let log_src = Logs.Src.create "dpc.runtime" ~doc:"DELP runtime events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = { injected : int; fired : int; outputs : int; dead_ends : int }

type t = {
  transport : Dpc_net.Transport.t;
  reliability : Dpc_net.Reliable.t option;
  delp : Delp.t;
  env : Env.t;
  hook : Prov_hook.t;
  nodes : Node.t array;
  dispatch : (string, dispatch) Hashtbl.t;  (* event relation -> what its arrival does *)
  record_outputs : bool;
  (* Cluster-global accumulators: every shard of a sharded transport
     appends/increments concurrently, so the list is mutex-guarded and
     the counters are atomics. (Under [~domains:1] this costs a few
     uncontended ns per event.) *)
  outputs_lock : Mutex.t;
  mutable outputs_rev : (Tuple.t * Prov_hook.meta) list;
  injected : int Atomic.t;
  fired : int Atomic.t;
  output_count : int Atomic.t;
  dead_ends : int Atomic.t;
  (* Crash-fault support: [journal] is the write-ahead sink (set by the
     durable layer), [available] says whether a node can take an injection
     right now (set from the crashable transport's control), [replaying]
     turns processing into pure state reconstruction for one node — no
     sends, no journaling, no global counters. Per-node, not global: one
     node replaying on its shard must not silence its neighbours'
     journaling on other shards. *)
  mutable journal : (node:int -> Journal.entry -> unit) option;
  mutable available : int -> bool;
  replaying : bool array;
  (* Real-process support: closures cannot cross a process boundary, so a
     transport that hosts only part of the cluster installs [remote] and
     gets every cross-process message as a serialized journal entry. *)
  mutable remote : remote option;
  (* Whichever layer owns the delivery channels: the in-process
     [Reliable], a socket host's transport, or nobody. *)
  mutable channels : Dpc_net.Chan.handle;
}

(* Resolved once per relation that triggers rules: its rule plans in
   program order, and whether a derived arrival of it is an extra
   relation of interest. *)
and dispatch = { plans : Eval.plan list; interest : bool }

and remote = {
  is_local : int -> bool;
  remote_ship : dst:int -> bytes:int -> payload:string -> unit;
  replayed_ship : dst:int -> payload:string -> unit;
}

(* The fixed per-message header charged on top of tuple and meta bytes. *)
let msg_overhead = 28

let create ~transport ?reliable ?domains ~delp ~env ~hook ?(interest = [])
    ?(record_outputs = true) ?nodes () =
  (match domains with
  | None -> ()
  | Some d ->
      let shards = Dpc_net.Transport.shards transport in
      if d <> shards then
        invalid_arg
          (Printf.sprintf "Runtime.create: ~domains:%d but the transport has %d shard(s)" d
             shards));
  (match List.filter (fun rel -> not (Delp.is_event delp rel)) interest with
  | [] -> ()
  | bad ->
      invalid_arg
        (Printf.sprintf "Runtime.create: interest relations [%s] are not derived by the program"
           (String.concat "; " (List.map (Printf.sprintf "%S") bad))));
  let n = Dpc_net.Transport.nodes transport in
  let nodes =
    match nodes with
    | None -> Node.cluster n
    | Some nodes ->
        if Array.length nodes <> n then
          invalid_arg
            (Printf.sprintf "Runtime.create: %d nodes supplied for a %d-node transport"
               (Array.length nodes) n);
        nodes
  in
  (* Under ?reliable, every message — event tuple shipments and sig
     broadcasts alike — goes through the at-least-once layer, and its
     per-node net.* counters land in the same registries as the
     runtime.* ones, so metrics_snapshot sees retries and dedups. *)
  let reliability, transport =
    match reliable with
    | None -> (None, transport)
    | Some config ->
        let r =
          Dpc_net.Reliable.wrap ~config
            ~metrics:(fun i -> Node.metrics nodes.(i))
            transport
        in
        (Some r, Dpc_net.Reliable.transport r)
  in
  (* Compile every rule once; [process] resolves an event relation with
     one hash lookup instead of filtering the program. *)
  let dispatch = Hashtbl.create 8 in
  List.iter
    (fun (rule : Ast.rule) ->
      let rel = rule.event.rel in
      let plans =
        match Hashtbl.find_opt dispatch rel with Some d -> d.plans | None -> []
      in
      Hashtbl.replace dispatch rel
        { plans = plans @ [ Eval.plan rule ]; interest = List.mem rel interest })
    delp.program.rules;
  {
    transport;
    reliability;
    delp;
    env;
    hook;
    nodes;
    dispatch;
    record_outputs;
    outputs_lock = Mutex.create ();
    outputs_rev = [];
    injected = Atomic.make 0;
    fired = Atomic.make 0;
    output_count = Atomic.make 0;
    dead_ends = Atomic.make 0;
    journal = None;
    available = (fun _ -> true);
    replaying = Array.make n false;
    remote = None;
    channels =
      (match reliability with
      | Some r -> Dpc_net.Reliable.channels r
      | None -> Dpc_net.Chan.stateless);
  }

let transport t = t.transport
let domains t = Dpc_net.Transport.shards t.transport
let reliability t = t.reliability
let delp t = t.delp
let nodes t = t.nodes
let node t i = t.nodes.(i)
let db t node = Node.db t.nodes.(node)
let tick t node name = Node.tick t.nodes.(node) name

let set_journal t f = t.journal <- Some f
let set_availability t f = t.available <- f

let set_remote t ~is_local ~ship ~replayed =
  t.remote <- Some { is_local; remote_ship = ship; replayed_ship = replayed }

let channels t = t.channels
let set_channels t h = t.channels <- h

let encode_entry entry = Dpc_util.Serialize.with_scratch (fun w -> Journal.write w entry)

let journal t node entry =
  if not t.replaying.(node) then
    match t.journal with None -> () | Some f -> f ~node entry

let load_slow t tuples =
  List.iter
    (fun tuple ->
      let node = Tuple.loc tuple in
      journal t node (Journal.Load tuple);
      ignore (Db.insert (db t node) tuple))
    tuples

(* Process [event] arriving at [node] carrying [meta]: fire every rule the
   event relation triggers; ship each head to its location. A head whose
   relation triggers no rule is an output. *)
let rec process t ~input node event meta =
  match Hashtbl.find_opt t.dispatch (Tuple.rel event) with
  | None ->
      Log.debug (fun m -> m "output %s at n%d" (Tuple.to_string event) node);
      if not t.replaying.(node) then begin
        Atomic.incr t.output_count;
        if t.record_outputs then
          Mutex.protect t.outputs_lock (fun () ->
            t.outputs_rev <- (event, meta) :: t.outputs_rev)
      end;
      tick t node "runtime.outputs";
      ignore (Db.insert (db t node) event);
      t.hook.on_output ~node event meta
  | Some { plans; interest } ->
      (* Extra relations of interest get a concrete provenance record on
         arrival, then execution continues through them. The injected input
         event itself is a base tuple (nothing derived it), so only derived
         arrivals are recorded. *)
      if interest && not input then begin
        ignore (Db.insert (db t node) event);
        t.hook.on_output ~node event meta
      end;
      let any_fired = ref false in
      List.iter
        (fun plan ->
          let rule = Eval.plan_rule plan in
          List.iter
            (fun (head, slow) ->
              any_fired := true;
              if not t.replaying.(node) then Atomic.incr t.fired;
              tick t node "runtime.fired";
              Log.debug (fun m ->
                m "%s fired at n%d: %s -> %s" rule.Ast.name node (Tuple.to_string event)
                  (Tuple.to_string head));
              let meta' = t.hook.on_fire ~node ~rule ~event ~slow ~head meta in
              ship t node head meta')
            (Eval.fire_planned ~env:t.env ~db:(db t node) ~plan ~event))
        plans;
      if not !any_fired then begin
        Log.debug (fun m -> m "event %s died at n%d" (Tuple.to_string event) node);
        if not t.replaying.(node) then Atomic.incr t.dead_ends;
        tick t node "runtime.dead_ends"
      end

and ship t src head meta =
  let dst = Tuple.loc head in
  let bytes = Tuple.wire_size head + t.hook.meta_bytes meta + msg_overhead in
  tick t src "runtime.shipped_msgs";
  Node.tick t.nodes.(src) ~by:bytes "runtime.shipped_bytes";
  if not t.replaying.(src) then begin
    match t.remote with
    | Some r when not (r.is_local dst) ->
        (* Cross-process: the closure below cannot travel, so the arrival
           goes over as its serialized journal entry and the receiving
           process re-materializes it in [deliver_remote]. *)
        r.remote_ship ~dst ~bytes
          ~payload:(encode_entry (Journal.Arrival { event = head; meta }))
    | _ ->
        Dpc_net.Transport.send t.transport ~src ~dst ~bytes (fun () ->
          journal t dst (Journal.Arrival { event = head; meta });
          process t ~input:false dst head meta)
  end
  else begin
    (* During replay the ship already happened in the pre-crash run: the
       metric ticks above rebuild the node's wiped counters, but nothing
       goes back on the wire — the recovering node's downstream effects
       are someone else's (delivered) history, not new sends. The one
       exception is a REMOTE send in a real-process host: a crash can land
       between the arrival reaching the write-ahead log and the resulting
       sends reaching the durable outbox, so replay re-offers every
       regenerated remote payload and the host reconciles it against the
       outbox ledger (already-recorded sends are recognized by their
       per-channel position and skipped; the missing tail gets recorded
       and transmitted at last). *)
    match t.remote with
    | Some r when not (r.is_local dst) ->
        r.replayed_ship ~dst
          ~payload:(encode_entry (Journal.Arrival { event = head; meta }))
    | _ -> ()
  end

(* Broadcast the sig control message to every node, including the origin
   (delivered locally through the queue to preserve event ordering). *)
let broadcast_sig t node op tuple =
  let bytes = msg_overhead + 4 in
  Node.tick t.nodes.(node) ~by:(Array.length t.nodes) "runtime.shipped_msgs";
  Node.tick t.nodes.(node) ~by:(bytes * Array.length t.nodes) "runtime.shipped_bytes";
  match t.remote with
  | None ->
      Dpc_net.Transport.broadcast t.transport ~src:node ~bytes (fun target ->
        journal t target (Journal.Sig { op; tuple });
        t.hook.on_slow_update ~node:target ~op tuple)
  | Some r ->
      (* A partial-cluster host fans the broadcast out by hand: local
         targets through the event queue as usual, remote ones as
         serialized [Sig] entries. *)
      for target = 0 to Array.length t.nodes - 1 do
        if r.is_local target then
          Dpc_net.Transport.send t.transport ~src:node ~dst:target ~bytes (fun () ->
            journal t target (Journal.Sig { op; tuple });
            t.hook.on_slow_update ~node:target ~op tuple)
        else r.remote_ship ~dst:target ~bytes ~payload:(encode_entry (Journal.Sig { op; tuple }))
      done

(* Replay's half of a sig broadcast: the remote targets, in the live
   loop's order, re-offered like every other regenerated remote send
   (see [ship]). Local targets journaled their own [Sig] on delivery. *)
let replay_sig t op tuple =
  match t.remote with
  | None -> ()
  | Some r ->
      let payload = encode_entry (Journal.Sig { op; tuple }) in
      for target = 0 to Array.length t.nodes - 1 do
        if not (r.is_local target) then r.replayed_ship ~dst:target ~payload
      done

let deliver_remote t ~node payload =
  let entry = Journal.read (Dpc_util.Serialize.reader payload) in
  match entry with
  | Journal.Arrival { event; meta } ->
      if Tuple.loc event <> node then
        invalid_arg
          (Printf.sprintf "Runtime.deliver_remote: arrival for n%d delivered at n%d"
             (Tuple.loc event) node);
      journal t node entry;
      process t ~input:false node event meta
  | Journal.Sig { op; tuple } ->
      journal t node entry;
      t.hook.on_slow_update ~node ~op tuple
  | _ -> invalid_arg "Runtime.deliver_remote: only arrivals and sig messages cross the wire"

let insert_slow_runtime t tuple =
  let node = Tuple.loc tuple in
  (* A duplicate insert changes nothing, so nothing is announced: no sig
     broadcast, no message/byte accounting. *)
  if Db.insert (db t node) tuple then begin
    journal t node (Journal.Slow_insert tuple);
    broadcast_sig t node Prov_hook.Slow_insert tuple
  end

let delete_slow_runtime t tuple =
  let node = Tuple.loc tuple in
  if Db.remove (db t node) tuple then begin
    journal t node (Journal.Slow_delete tuple);
    broadcast_sig t node Prov_hook.Slow_delete tuple;
    true
  end
  else false

(* How long an injection at a down node waits before trying again. The
   input source keeps its event durably and re-presents it — an injection
   is never lost to a crash, only delayed past the restart. *)
let inject_retry_delay = 0.05

let inject t ?(delay = 0.0) event =
  if not (String.equal (Tuple.rel event) t.delp.input_event) then
    invalid_arg
      (Printf.sprintf "Runtime.inject: expected a %S tuple, got %S" t.delp.input_event
         (Tuple.rel event));
  Atomic.incr t.injected;
  let node = Tuple.loc event in
  let attempts = ref 0 in
  let rec attempt () =
    incr attempts;
    if t.available node then begin
      tick t node "runtime.injected";
      journal t node (Journal.Input event);
      let meta = t.hook.on_input ~node event in
      process t ~input:true node event meta
    end
    else if !attempts < 1000 then
      (* The node is down: the input source holds the event and re-presents
         it after the restart. Bounded so a never-restarted node cannot
         keep the event loop spinning forever. *)
      Dpc_net.Transport.schedule_on t.transport ~node ~delay:inject_retry_delay attempt
    else tick t node "runtime.abandoned_injections"
  in
  (* [schedule_on], not [schedule]: processing must start on the shard
     that owns the event's node. *)
  Dpc_net.Transport.schedule_on t.transport ~node ~delay attempt

(* Rebuild one node's volatile state from its journal tail. Entries are
   re-applied through the same hook/process pipeline that produced the
   original state — replay mode keeps the per-node metric ticks (the
   registry was wiped with the node) but suppresses sends, journaling,
   and the cluster-global counters (those never died). Channel entries
   raise the channel layer's sequence state in place, so surviving
   retransmit closures pick the watermark back up. *)
let replay t ~node entries =
  t.replaying.(node) <- true;
  Fun.protect
    ~finally:(fun () -> t.replaying.(node) <- false)
    (fun () ->
      List.iter
        (fun entry ->
          match (entry : Journal.entry) with
          | Input event ->
              tick t node "runtime.injected";
              let meta = t.hook.on_input ~node event in
              process t ~input:true node event meta
          | Arrival { event; meta } -> process t ~input:false node event meta
          | Sig { op; tuple } -> t.hook.on_slow_update ~node ~op tuple
          | Slow_insert tuple ->
              if Db.insert (db t node) tuple then replay_sig t Prov_hook.Slow_insert tuple
          | Slow_delete tuple ->
              if Db.remove (db t node) tuple then replay_sig t Prov_hook.Slow_delete tuple
          | Load tuple -> ignore (Db.insert (db t node) tuple)
          | Next_seq { peer; seq } -> t.channels.raise_next_seq ~src:node ~dst:peer seq
          | Expected { peer; seq } -> t.channels.raise_expected ~src:peer ~dst:node seq)
        entries)

let outputs t = Mutex.protect t.outputs_lock (fun () -> List.rev t.outputs_rev)

let stats t =
  {
    injected = Atomic.get t.injected;
    fired = Atomic.get t.fired;
    outputs = Atomic.get t.output_count;
    dead_ends = Atomic.get t.dead_ends;
  }

let metrics_snapshot t =
  Array.fold_left
    (fun acc node -> Dpc_util.Metrics.merge acc (Dpc_util.Metrics.snapshot (Node.metrics node)))
    Dpc_util.Metrics.empty t.nodes

let run ?until t = Dpc_net.Transport.run ?until t.transport
