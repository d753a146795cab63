(* Sharded discrete-event transport: the node set is partitioned
   round-robin into [domains] shards, each owned by one OCaml domain with
   its own event heap, clock, and counters. Cross-shard messages move
   through mutex-guarded inboxes between barrier-separated phases of a
   conservative (YAWNS-style) time-window loop: every round processes the
   events in [T, T + latency) where T is the global minimum head time and
   [latency] is the minimum cross-shard delay, so no shard can receive a
   message "from the past".

   Determinism is structural, not statistical. Every event carries a key
   [(at, origin, ctr)] assigned by its creator: [origin] is the creating
   node (or a reserved id for the main domain / anonymous shard timers)
   and [ctr] a per-origin counter. The key is a total order, identical
   whatever the shard count, so each node processes its events in the
   same sequence under [~domains:1] and [~domains:4] — the
   parallel-vs-sequential digest oracle in the tests leans on exactly
   this. *)

type event = { at : float; origin : int; ctr : int; action : unit -> unit }

let cmp_event a b =
  match Float.compare a.at b.at with
  | 0 -> ( match compare a.origin b.origin with 0 -> compare a.ctr b.ctr | c -> c)
  | c -> c

type shard = {
  sid : int;
  heap : event Dpc_util.Heap.t;
  mutable clock : float;
  (* (destination shard, event) pairs buffered during the processing
     phase, flushed at the first barrier. Owner-only until the flush. *)
  mutable outbox : (int * event) list;
  mutable anon_ctr : int;
  mutable bytes : int;
  mutable msgs : int;
}

type inbox = { ilock : Mutex.t; mutable items : event list }

(* Reusable sense-reversing barrier; [Mutex]/[Condition] only, no
   domainslib. The lock handoff doubles as the memory fence that makes
   pre-barrier writes (heads, inbox flushes) visible after it. *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
  }

  let create parties =
    { lock = Mutex.create (); cond = Condition.create (); parties; count = 0; phase = 0 }

  let wait b =
    Mutex.lock b.lock;
    let phase = b.phase in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.phase <- b.phase + 1;
      Condition.broadcast b.cond
    end
    else
      while b.phase = phase do
        Condition.wait b.cond b.lock
      done;
    Mutex.unlock b.lock
end

type t = {
  nodes : int;
  domains : int;
  latency : float;
  jitter : float;
  seed : int;
  shards : shard array;
  inboxes : inbox array;
  (* Published head-of-heap times, one slot per shard; written by the
     owner before a barrier, read by everyone after it. *)
  heads : float array;
  (* Per-origin event counters. [node_ctr.(n)] is owned by [n]'s shard
     (or the main domain outside [run]); the channel counters drive the
     deterministic jitter hash and are owned by the sending shard. *)
  node_ctr : int array;
  chan_ctr : int array;
  mutable main_ctr : int;
  mutable global_time : float;
  mutable running : bool;
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  barrier : Barrier.t;
}

(* The shard the current domain is driving, [None] on the main domain
   outside a sequential [run]. Worker domains are spawned per [run] call,
   so a fresh domain always starts at the default. *)
let dls_shard : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let partition ~domains ~nodes =
  if domains <= 0 then invalid_arg "Shard_sim.partition: domains must be positive";
  if nodes <= 0 then invalid_arg "Shard_sim.partition: nodes must be positive";
  Array.init nodes (fun n -> n mod domains)

let create ?(latency = 0.001) ?(jitter = 0.0) ?(seed = 0) ~domains ~nodes () =
  if domains <= 0 then invalid_arg "Shard_sim.create: domains must be positive";
  if nodes <= 0 then invalid_arg "Shard_sim.create: nodes must be positive";
  if latency <= 0.0 then
    (* The window loop's lookahead is the minimum cross-shard delay; a
       zero-latency wire would shrink every round to a single timestamp
       and, worse, admit same-time cross-shard causality. *)
    invalid_arg "Shard_sim.create: latency must be positive";
  if jitter < 0.0 then invalid_arg "Shard_sim.create: negative jitter";
  {
    nodes;
    domains;
    latency;
    jitter;
    seed;
    shards =
      Array.init domains (fun sid ->
        { sid; heap = Dpc_util.Heap.create ~cmp:cmp_event; clock = 0.0; outbox = [];
          anon_ctr = 0; bytes = 0; msgs = 0 });
    inboxes = Array.init domains (fun _ -> { ilock = Mutex.create (); items = [] });
    heads = Array.make domains infinity;
    node_ctr = Array.make nodes 0;
    chan_ctr = Array.make (nodes * nodes) 0;
    main_ctr = 0;
    global_time = 0.0;
    running = false;
    error = Atomic.make None;
    barrier = Barrier.create domains;
  }

let domains t = t.domains
let nodes t = t.nodes
let shard_of t node = node mod t.domains

(* Reserved origins: [-1] is the main domain; [-(s + 2)] is shard [s]'s
   anonymous context (generic [schedule] with no node attached). *)
let main_origin = -1
let anon_origin sid = -(sid + 2)

let check_node t ~what node =
  if node < 0 || node >= t.nodes then
    invalid_arg (Printf.sprintf "Shard_sim.%s: node %d out of range" what node)

let current_shard () = Domain.DLS.get dls_shard

let caller_now t = function
  | Some sid -> t.shards.(sid).clock
  | None -> t.global_time

(* Route an event to the shard that must execute it. From the main domain
   no workers are live, so pushing straight into the target heap is safe;
   from a worker, a foreign target goes through the outbox and crosses at
   the next barrier. *)
let push_event t ~target ev =
  match current_shard () with
  | None -> Dpc_util.Heap.push t.shards.(target).heap ev
  | Some sid when sid = target -> Dpc_util.Heap.push t.shards.(sid).heap ev
  | Some sid ->
      let s = t.shards.(sid) in
      s.outbox <- (target, ev) :: s.outbox

let node_event t ~node ~at action =
  let ctr = t.node_ctr.(node) in
  t.node_ctr.(node) <- ctr + 1;
  { at; origin = node; ctr; action }

(* Jitter for the [n]th message on a channel hashes (seed, src, dst, n),
   so latencies are identical whatever the shard count. *)
let wire_delay t ~src ~dst =
  if t.jitter = 0.0 then t.latency
  else begin
    let idx = (src * t.nodes) + dst in
    let n = t.chan_ctr.(idx) in
    t.chan_ctr.(idx) <- n + 1;
    t.latency +. (t.jitter *. Transport.channel_unit_hash ~seed:t.seed ~src ~dst ~n)
  end

let send t ~src ~dst ~bytes k =
  check_node t ~what:"send" src;
  check_node t ~what:"send" dst;
  let ctx = current_shard () in
  let charge = t.shards.(match ctx with Some sid -> sid | None -> shard_of t src) in
  charge.msgs <- charge.msgs + 1;
  charge.bytes <- charge.bytes + bytes;
  let at = caller_now t ctx +. wire_delay t ~src ~dst in
  push_event t ~target:(shard_of t dst) (node_event t ~node:src ~at k)

let schedule t ~delay k =
  if delay < 0.0 then invalid_arg "Shard_sim.schedule: negative delay";
  match current_shard () with
  | None ->
      let ctr = t.main_ctr in
      t.main_ctr <- ctr + 1;
      push_event t ~target:0 { at = t.global_time +. delay; origin = main_origin; ctr; action = k }
  | Some sid ->
      let s = t.shards.(sid) in
      let ctr = s.anon_ctr in
      s.anon_ctr <- ctr + 1;
      push_event t ~target:sid { at = s.clock +. delay; origin = anon_origin sid; ctr; action = k }

let schedule_on t ~node ~delay k =
  if delay < 0.0 then invalid_arg "Shard_sim.schedule_on: negative delay";
  check_node t ~what:"schedule_on" node;
  let target = shard_of t node in
  match current_shard () with
  | None -> push_event t ~target (node_event t ~node ~at:(t.global_time +. delay) k)
  | Some sid when sid = target ->
      push_event t ~target (node_event t ~node ~at:(t.shards.(sid).clock +. delay) k)
  | Some sid ->
      (* Arming a timer on a foreign node's shard mid-run: allowed, but
         the node counter belongs to the target shard, so the event is
         tagged with the caller's anonymous origin and crosses via the
         outbox (clamped forward on ingest if the window already moved). *)
      let s = t.shards.(sid) in
      let ctr = s.anon_ctr in
      s.anon_ctr <- ctr + 1;
      push_event t ~target { at = s.clock +. delay; origin = anon_origin sid; ctr; action = k }

let total_bytes t = Array.fold_left (fun acc s -> acc + s.bytes) 0 t.shards
let messages t = Array.fold_left (fun acc s -> acc + s.msgs) 0 t.shards
let now t = caller_now t (current_shard ())

(* One shard's side of the window loop. Three barriers per round:
   process-[flush]-ingest/publish-[decide]; all workers read the same
   published heads between rounds, so they agree on the window — and on
   termination — without any leader. *)
let worker t ~limit sid =
  Domain.DLS.set dls_shard (Some sid);
  let s = t.shards.(sid) in
  let publish () =
    t.heads.(sid) <-
      (match Dpc_util.Heap.peek s.heap with Some ev -> ev.at | None -> infinity)
  in
  publish ();
  Barrier.wait t.barrier;
  let rec round () =
    if Atomic.get t.error <> None then ()
    else begin
      let tmin = Array.fold_left Float.min infinity t.heads in
      if tmin >= limit then ()
      else begin
        let window = Float.min (tmin +. t.latency) limit in
        (try
           let rec drain () =
             match Dpc_util.Heap.peek s.heap with
             | Some ev when ev.at < window ->
                 ignore (Dpc_util.Heap.pop s.heap);
                 if ev.at > s.clock then s.clock <- ev.at;
                 ev.action ();
                 drain ()
             | _ -> ()
           in
           drain ()
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set t.error None (Some (e, bt))));
        Barrier.wait t.barrier;
        List.iter
          (fun (target, ev) ->
            let ib = t.inboxes.(target) in
            Mutex.protect ib.ilock (fun () -> ib.items <- ev :: ib.items))
          s.outbox;
        s.outbox <- [];
        Barrier.wait t.barrier;
        let ib = t.inboxes.(sid) in
        let incoming =
          Mutex.protect ib.ilock (fun () ->
            let items = ib.items in
            ib.items <- [];
            items)
        in
        List.iter
          (fun ev ->
            (* Only a cross-shard [schedule_on] with a tiny delay can land
               behind the local clock; pull it forward rather than run an
               event in the past. Message arrivals always clear the
               window by construction (arrival >= send time + latency). *)
            let ev = if ev.at < s.clock then { ev with at = s.clock } else ev in
            Dpc_util.Heap.push s.heap ev)
          incoming;
        publish ();
        Barrier.wait t.barrier;
        round ()
      end
    end
  in
  round ()

let run_sequential t ~limit =
  let s = t.shards.(0) in
  Domain.DLS.set dls_shard (Some 0);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set dls_shard None;
      if s.clock > t.global_time then t.global_time <- s.clock)
    (fun () ->
      let rec go () =
        match Dpc_util.Heap.peek s.heap with
        | Some ev when ev.at < limit ->
            ignore (Dpc_util.Heap.pop s.heap);
            if ev.at > s.clock then s.clock <- ev.at;
            ev.action ();
            go ()
        | _ -> ()
      in
      go ())

let run ?until t =
  if t.running then invalid_arg "Shard_sim.run: already running";
  let limit = match until with None -> infinity | Some u -> u in
  if t.domains = 1 then run_sequential t ~limit
  else begin
    t.running <- true;
    Atomic.set t.error None;
    let workers = Array.init t.domains (fun sid -> Domain.spawn (fun () -> worker t ~limit sid)) in
    Array.iter Domain.join workers;
    t.running <- false;
    Array.iter (fun s -> if s.clock > t.global_time then t.global_time <- s.clock) t.shards;
    match Atomic.get t.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let transport t : Transport.t =
  (module struct
    let name = Printf.sprintf "shard_sim[%d]" t.domains
    let nodes = t.nodes
    let shards = t.domains
    let shard_of node = shard_of t node
    let now () = now t
    let schedule ~delay k = schedule t ~delay k
    let schedule_on ~node ~delay k = schedule_on t ~node ~delay k
    let send ~src ~dst ~bytes k = send t ~src ~dst ~bytes k
    let broadcast = Transport.fanout ~nodes send
    let run ?until () = run ?until t
    let total_bytes () = total_bytes t
    let messages () = messages t
  end)
