type t = {
  topo : Topology.t;
  routing : Routing.t;
  bucket_width : float;
  jitter : float;
  rng : Dpc_util.Rng.t;
  queue : Event_queue.t;
  mutable total_bytes : int;
  mutable messages : int;
  link_counters : (int * int, int ref) Hashtbl.t;
  buckets : (int, int ref) Hashtbl.t;
}

let create ?(bucket_width = 1.0) ?(jitter = 0.0) ?(seed = 0) ~topology ~routing () =
  if jitter < 0.0 then invalid_arg "Sim.create: negative jitter";
  {
    topo = topology;
    routing;
    bucket_width;
    jitter;
    rng = Dpc_util.Rng.create ~seed;
    queue = Event_queue.create ();
    total_bytes = 0;
    messages = 0;
    link_counters = Hashtbl.create 64;
    buckets = Hashtbl.create 64;
  }

let topology t = t.topo
let routing t = t.routing
let now t = Event_queue.now t.queue
let schedule t ~delay action = Event_queue.schedule t.queue ~delay action

let counter tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tbl key r;
      r

let account t ~at ~hop_src ~hop_dst ~bytes =
  t.total_bytes <- t.total_bytes + bytes;
  let key = (min hop_src hop_dst, max hop_src hop_dst) in
  let c = counter t.link_counters key in
  c := !c + bytes;
  let bucket = int_of_float (at /. t.bucket_width) in
  let b = counter t.buckets bucket in
  b := !b + bytes

let jitter_delay t = if t.jitter = 0.0 then 0.0 else Dpc_util.Rng.float t.rng t.jitter

let send t ~src ~dst ~bytes k =
  t.messages <- t.messages + 1;
  if src = dst then schedule t ~delay:(jitter_delay t) k
  else begin
    match Routing.path t.routing ~src ~dst with
    | None -> failwith (Printf.sprintf "Sim.send: node %d unreachable from %d" dst src)
    | Some path ->
        (* Walk the path hop by hop, accumulating per-hop delays and charging
           each link at the moment transmission on it starts. *)
        let rec hops at = function
          | a :: (b :: _ as rest) ->
              let link =
                match Topology.link t.topo a b with
                | Some l -> l
                | None -> assert false (* routing only uses existing links *)
              in
              account t ~at ~hop_src:a ~hop_dst:b ~bytes;
              let arrival = at +. link.latency +. (float_of_int bytes /. link.bandwidth) in
              hops arrival rest
          | [ _ ] | [] -> at
        in
        let arrival = hops (now t) path +. jitter_delay t in
        Event_queue.schedule_at t.queue arrival k
  end

let run ?until t = Event_queue.run ?until t.queue

let events_processed t = Event_queue.processed t.queue
let total_bytes t = t.total_bytes

let link_bytes t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.link_counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let bucket_bytes t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let messages_sent t = t.messages
