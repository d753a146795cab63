(* Tests for dpc_net: topology invariants, the transit-stub and tree
   generators, routing, and the discrete-event simulator. *)

open Dpc_net

let check = Alcotest.check
let link = { Topology.latency = 0.01; bandwidth = 1e6 }
let fast_link = { Topology.latency = 0.001; bandwidth = 1e6 }

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_links () =
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 link;
  check Alcotest.bool "connected" true (Topology.connected t 0 1);
  check Alcotest.bool "symmetric" true (Topology.connected t 1 0);
  check Alcotest.bool "absent" false (Topology.connected t 0 2);
  check Alcotest.int "degree" 1 (Topology.degree t 0);
  check Alcotest.int "one undirected link" 1 (List.length (Topology.links t))

let test_topology_rejects_bad_links () =
  let t = Topology.create ~n:2 in
  Alcotest.check_raises "self link" (Invalid_argument "Topology.add_link: self-link")
    (fun () -> Topology.add_link t 0 0 link);
  Alcotest.check_raises "out of range" (Invalid_argument "Topology: node 5 out of range")
    (fun () -> Topology.add_link t 0 5 link)

let test_topology_connectivity () =
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 link;
  check Alcotest.bool "disconnected" false (Topology.is_connected t);
  Topology.add_link t 1 2 link;
  check Alcotest.bool "connected" true (Topology.is_connected t)

(* ------------------------------------------------------------------ *)
(* Transit-stub generator *)

let test_transit_stub_shape () =
  let rng = Dpc_util.Rng.create ~seed:7 in
  let ts = Transit_stub.generate ~rng Transit_stub.paper_params in
  check Alcotest.int "100 nodes" 100 (Topology.size ts.topology);
  check Alcotest.int "4 transit" 4 (List.length ts.transit_nodes);
  check Alcotest.int "96 stubs" 96 (List.length ts.stub_nodes);
  check Alcotest.bool "connected" true (Topology.is_connected ts.topology);
  (* Transit mesh. *)
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a <> b then check Alcotest.bool "transit mesh" true (Topology.connected ts.topology a b))
        ts.transit_nodes)
    ts.transit_nodes

let test_transit_stub_link_classes () =
  let rng = Dpc_util.Rng.create ~seed:7 in
  let p = Transit_stub.paper_params in
  let ts = Transit_stub.generate ~rng p in
  (match Topology.link ts.topology 0 1 with
  | Some l -> check (Alcotest.float 1e-9) "transit latency" p.transit_link.latency l.latency
  | None -> Alcotest.fail "transit link missing");
  (* Every stub-stub link uses the stub class. *)
  List.iter
    (fun (a, b, (l : Topology.link)) ->
      let is_transit v = v < p.transit in
      if (not (is_transit a)) && not (is_transit b) then
        check (Alcotest.float 1e-9) "stub latency" p.stub_link.latency l.latency)
    (Topology.links ts.topology)

let test_transit_stub_path_stats_close_to_paper () =
  (* The paper reports diameter 12 and mean pair distance 5.3 for its
     GT-ITM topology; ours should be in the same regime. *)
  let rng = Dpc_util.Rng.create ~seed:11 in
  let ts = Transit_stub.generate ~rng Transit_stub.paper_params in
  let routing = Routing.compute ts.topology in
  let diameter = Routing.diameter routing in
  let mean = Routing.mean_pair_distance routing in
  if diameter < 6 || diameter > 16 then Alcotest.failf "diameter %d out of regime" diameter;
  if mean < 3.0 || mean > 8.0 then Alcotest.failf "mean distance %.2f out of regime" mean

let test_transit_stub_deterministic () =
  let gen seed =
    let rng = Dpc_util.Rng.create ~seed in
    Topology.links (Transit_stub.generate ~rng Transit_stub.paper_params).topology
    |> List.map (fun (a, b, _) -> (a, b))
  in
  check Alcotest.bool "same seed, same topology" true (gen 3 = gen 3);
  check Alcotest.bool "different seed, different topology" true (gen 3 <> gen 4)

(* ------------------------------------------------------------------ *)
(* Tree generator *)

let test_tree_shape () =
  let rng = Dpc_util.Rng.create ~seed:5 in
  let tr = Tree_topo.generate ~rng ~n:100 ~backbone_depth:27 ~link in
  check Alcotest.int "100 nodes" 100 (Topology.size tr.topology);
  check Alcotest.bool "connected" true (Topology.is_connected tr.topology);
  check Alcotest.int "root has no parent" (-1) tr.parent.(0);
  check Alcotest.int "max depth from backbone" 27 (Tree_topo.max_depth tr);
  (* A tree: n-1 links. *)
  check Alcotest.int "99 links" 99 (List.length (Topology.links tr.topology))

let test_tree_children_inverse_of_parent () =
  let rng = Dpc_util.Rng.create ~seed:5 in
  let tr = Tree_topo.generate ~rng ~n:30 ~backbone_depth:5 ~link in
  for v = 1 to 29 do
    if not (List.mem v (Tree_topo.children tr tr.parent.(v))) then
      Alcotest.failf "node %d missing from its parent's children" v
  done

(* ------------------------------------------------------------------ *)
(* Routing *)

let line_topology n =
  let t = Topology.create ~n in
  for v = 0 to n - 2 do
    Topology.add_link t v (v + 1) link
  done;
  t

let test_routing_line () =
  let t = line_topology 5 in
  let r = Routing.compute t in
  check (Alcotest.option Alcotest.int) "next hop" (Some 1) (Routing.next_hop r ~src:0 ~dst:4);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "path" (Some [ 0; 1; 2; 3; 4 ]) (Routing.path r ~src:0 ~dst:4);
  check (Alcotest.option Alcotest.int) "hops" (Some 4) (Routing.hop_count r ~src:0 ~dst:4);
  check (Alcotest.option (Alcotest.float 1e-9)) "distance" (Some 0.04)
    (Routing.distance r ~src:0 ~dst:4);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "self path" (Some [ 2 ])
    (Routing.path r ~src:2 ~dst:2)

let test_routing_prefers_low_latency () =
  (* 0-1-2 with fast links vs direct slow 0-2. *)
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 fast_link;
  Topology.add_link t 1 2 fast_link;
  Topology.add_link t 0 2 { Topology.latency = 0.1; bandwidth = 1e6 };
  let r = Routing.compute t in
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "two fast hops beat one slow hop" (Some [ 0; 1; 2 ]) (Routing.path r ~src:0 ~dst:2)

let test_routing_unreachable () =
  let t = Topology.create ~n:3 in
  Topology.add_link t 0 1 link;
  let r = Routing.compute t in
  check (Alcotest.option Alcotest.int) "no hop" None (Routing.next_hop r ~src:0 ~dst:2);
  check (Alcotest.option (Alcotest.list Alcotest.int)) "no path" None (Routing.path r ~src:0 ~dst:2)

let test_routing_paths_follow_links () =
  let rng = Dpc_util.Rng.create ~seed:13 in
  let ts = Transit_stub.generate ~rng Transit_stub.paper_params in
  let r = Routing.compute ts.topology in
  let g = Dpc_util.Rng.create ~seed:1 in
  for _ = 1 to 50 do
    let src = Dpc_util.Rng.int g 100 and dst = Dpc_util.Rng.int g 100 in
    match Routing.path r ~src ~dst with
    | None -> Alcotest.fail "transit-stub should be connected"
    | Some p ->
        let rec ok = function
          | a :: (b :: _ as rest) -> Topology.connected ts.topology a b && ok rest
          | [ _ ] | [] -> true
        in
        if not (ok p) then Alcotest.fail "path uses a non-existent link";
        (* Loop-free. *)
        if List.length (List.sort_uniq compare p) <> List.length p then
          Alcotest.fail "path revisits a node"
  done

(* ------------------------------------------------------------------ *)
(* Simulator *)

let test_sim_event_ordering () =
  let t = line_topology 2 in
  let r = Routing.compute t in
  let sim = Sim.create ~topology:t ~routing:r () in
  let log = ref [] in
  Sim.schedule sim ~delay:0.3 (fun () -> log := 3 :: !log);
  Sim.schedule sim ~delay:0.1 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:0.2 (fun () -> log := 2 :: !log);
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int "events processed" 3 (Sim.events_processed sim)

let test_sim_fifo_at_equal_time () =
  let t = line_topology 2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:0.5 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_send_accounts_bytes_per_hop () =
  let t = line_topology 3 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let arrived = ref false in
  Sim.send sim ~src:0 ~dst:2 ~bytes:1000 (fun () -> arrived := true);
  Sim.run sim;
  check Alcotest.bool "arrived" true !arrived;
  (* 1000 bytes over two hops. *)
  check Alcotest.int "total bytes" 2000 (Sim.total_bytes sim);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair Alcotest.int Alcotest.int) Alcotest.int))
    "per link" [ ((0, 1), 1000); ((1, 2), 1000) ] (Sim.link_bytes sim);
  (* Arrival time = 2 * (latency + bytes / bandwidth). *)
  check (Alcotest.float 1e-9) "clock" (2.0 *. (0.01 +. 0.001)) (Sim.now sim)

let test_sim_self_send () =
  let t = line_topology 2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let arrived = ref false in
  Sim.send sim ~src:0 ~dst:0 ~bytes:100 (fun () -> arrived := true);
  Sim.run sim;
  check Alcotest.bool "delivered" true !arrived;
  check Alcotest.int "no bytes on the wire" 0 (Sim.total_bytes sim)

let test_sim_until_limit () =
  let t = line_topology 2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr fired);
  Sim.schedule sim ~delay:3.0 (fun () -> incr fired);
  Sim.run ~until:2.0 sim;
  check Alcotest.int "only the first event" 1 !fired;
  Sim.run sim;
  check Alcotest.int "rest runs later" 2 !fired

let test_sim_bucket_accounting () =
  let t = line_topology 2 in
  let sim = Sim.create ~bucket_width:1.0 ~topology:t ~routing:(Routing.compute t) () in
  Sim.schedule sim ~delay:0.5 (fun () -> Sim.send sim ~src:0 ~dst:1 ~bytes:10 (fun () -> ()));
  Sim.schedule sim ~delay:2.5 (fun () -> Sim.send sim ~src:0 ~dst:1 ~bytes:20 (fun () -> ()));
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "buckets" [ (0, 10); (2, 20) ] (Sim.bucket_bytes sim)

let test_sim_unreachable_send_fails () =
  let t = Topology.create ~n:2 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  Alcotest.check_raises "unreachable" (Failure "Sim.send: node 1 unreachable from 0")
    (fun () -> Sim.send sim ~src:0 ~dst:1 ~bytes:1 (fun () -> ()))

let prop_sim_heap_order =
  QCheck.Test.make ~name:"random delays fire in order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (float_bound_inclusive 10.0))
    (fun delays ->
      delays = [] ||
      begin
        let t = line_topology 2 in
        let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
        let fired = ref [] in
        List.iter (fun d -> Sim.schedule sim ~delay:d (fun () -> fired := Sim.now sim :: !fired)) delays;
        Sim.run sim;
        let order = List.rev !fired in
        List.sort compare order = order
      end)

(* ------------------------------------------------------------------ *)
(* Transport — one conformance suite, run against both backends. *)

(* Each case takes a factory so every test gets a fresh transport. *)
let conformance mk =
  let test name f = Alcotest.test_case name `Quick (fun () -> f (mk ())) in
  [
    test "three nodes" (fun tr -> check Alcotest.int "nodes" 3 (Transport.nodes tr));
    test "schedule fires in timestamp order" (fun tr ->
        let log = ref [] in
        Transport.schedule tr ~delay:0.3 (fun () -> log := 3 :: !log);
        Transport.schedule tr ~delay:0.1 (fun () -> log := 1 :: !log);
        Transport.schedule tr ~delay:0.2 (fun () -> log := 2 :: !log);
        Transport.run tr;
        check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log));
    test "FIFO at equal time" (fun tr ->
        let log = ref [] in
        for i = 1 to 5 do
          Transport.schedule tr ~delay:0.5 (fun () -> log := i :: !log)
        done;
        Transport.run tr;
        check (Alcotest.list Alcotest.int) "FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    test "negative delay rejected" (fun tr ->
        match Transport.schedule tr ~delay:(-1.0) (fun () -> ()) with
        | () -> Alcotest.fail "negative delay accepted"
        | exception Invalid_argument _ -> ());
    test "send delivers through the queue, never synchronously" (fun tr ->
        let arrived = ref false in
        Transport.send tr ~src:0 ~dst:2 ~bytes:100 (fun () -> arrived := true);
        check Alcotest.bool "not yet" false !arrived;
        Transport.run tr;
        check Alcotest.bool "delivered" true !arrived);
    test "send counts messages and bytes" (fun tr ->
        Transport.send tr ~src:0 ~dst:2 ~bytes:100 (fun () -> ());
        Transport.send tr ~src:0 ~dst:1 ~bytes:50 (fun () -> ());
        Transport.run tr;
        check Alcotest.bool "messages" true (Transport.messages tr >= 2);
        check Alcotest.bool "bytes" true (Transport.total_bytes tr >= 150));
    test "broadcast reaches every node, origin included" (fun tr ->
        let seen = ref [] in
        Transport.broadcast tr ~src:1 ~bytes:10 (fun dst -> seen := dst :: !seen);
        Transport.run tr;
        check (Alcotest.list Alcotest.int) "all nodes" [ 0; 1; 2 ]
          (List.sort compare !seen));
    test "run ?until keeps future events queued" (fun tr ->
        let fired = ref 0 in
        Transport.schedule tr ~delay:1.0 (fun () -> incr fired);
        Transport.schedule tr ~delay:3.0 (fun () -> incr fired);
        Transport.run ~until:2.0 tr;
        check Alcotest.int "only the first" 1 !fired;
        check Alcotest.bool "clock within limit" true (Transport.now tr <= 2.0);
        Transport.run tr;
        check Alcotest.int "rest runs later" 2 !fired);
    test "clock is monotone across deliveries" (fun tr ->
        let times = ref [] in
        Transport.schedule tr ~delay:0.2 (fun () -> times := Transport.now tr :: !times);
        Transport.send tr ~src:0 ~dst:2 ~bytes:10 (fun () ->
            times := Transport.now tr :: !times);
        Transport.run tr;
        let order = List.rev !times in
        check Alcotest.bool "sorted" true (List.sort compare order = order));
  ]

let sim_transport () =
  let t = line_topology 3 in
  Transport.of_sim (Sim.create ~topology:t ~routing:(Routing.compute t) ())

let direct_transport () = Transport.direct ~nodes:3 ()

(* Every decorator, and the sharded backend, must pass the same suite as
   the backends it wraps. *)
let faulty_transport () =
  fst (Transport.faulty_with (direct_transport ()) ~decide:(fun ~src:_ ~dst:_ ~bytes:_ ->
    Transport.F_deliver))

let crashable_transport () = fst (Transport.crashable (sim_transport ()))
let partitionable_transport () = fst (Transport.partitionable (direct_transport ()))
let reliable_transport () = Reliable.transport (Reliable.wrap (sim_transport ()))

let shard_transport () = Shard_sim.transport (Shard_sim.create ~domains:1 ~nodes:3 ())

let test_decorator_names_compose () =
  let faulty, _ =
    Transport.faulty_with (direct_transport ()) ~decide:(fun ~src:_ ~dst:_ ~bytes:_ ->
      Transport.F_deliver)
  in
  let partitioned, _ = Transport.partitionable faulty in
  let crashed, _ = Transport.crashable partitioned in
  let reliable = Reliable.transport (Reliable.wrap crashed) in
  check Alcotest.string "stacked name" "reliable+crashable+partitionable+faulty+direct"
    (Transport.name reliable);
  check Alcotest.int "nodes forwarded" 3 (Transport.nodes reliable);
  check Alcotest.int "shards forwarded" 1 (Transport.shards reliable)

let test_socket_address_grammar () =
  (match Socket.sockaddr "unix:node-0.sock" with
  | Unix.ADDR_UNIX path -> check Alcotest.string "unix path" "node-0.sock" path
  | Unix.ADDR_INET _ -> Alcotest.fail "unix address parsed as tcp");
  let inet s =
    match Socket.sockaddr s with
    | Unix.ADDR_INET (ip, port) -> (Unix.string_of_inet_addr ip, port)
    | Unix.ADDR_UNIX _ -> Alcotest.failf "%S parsed as unix" s
  in
  let addr = Alcotest.(pair string int) in
  check addr "tcp host:port" ("127.0.0.1", 7000) (inet "tcp:127.0.0.1:7000");
  check addr "lowest port" ("127.0.0.1", 1) (inet "tcp:127.0.0.1:1");
  check addr "highest port" ("127.0.0.1", 65535) (inet "tcp:127.0.0.1:65535");
  check addr "port after the last colon" ("::1", 7000) (inet "tcp:::1:7000");
  List.iter
    (fun s ->
      match Socket.sockaddr s with
      | _ -> Alcotest.failf "%S accepted" s
      | exception Invalid_argument _ -> ())
    [
      "unix:";
      "tcp:127.0.0.1:0";
      "tcp:127.0.0.1:65536";
      "tcp:127.0.0.1:abc";
      "tcp:127.0.0.1:";
      "tcp:127.0.0.1";
      "udp:127.0.0.1:7000";
      "node-0.sock";
    ]

let test_of_sim_shares_sim_accounting () =
  let t = line_topology 3 in
  let sim = Sim.create ~topology:t ~routing:(Routing.compute t) () in
  let tr = Transport.of_sim sim in
  check Alcotest.string "name" "sim" (Transport.name tr);
  Transport.send tr ~src:0 ~dst:2 ~bytes:1000 (fun () -> ());
  Transport.run tr;
  (* Per-hop accounting is the simulator's: two hops on the line. *)
  check Alcotest.int "bytes via transport" (Sim.total_bytes sim) (Transport.total_bytes tr);
  check Alcotest.int "two hops charged" 2000 (Transport.total_bytes tr);
  check (Alcotest.float 1e-9) "same clock" (Sim.now sim) (Transport.now tr)

let test_direct_zero_latency () =
  let tr = direct_transport () in
  check Alcotest.string "name" "direct" (Transport.name tr);
  let at = ref (-1.0) in
  Transport.send tr ~src:0 ~dst:2 ~bytes:500 (fun () -> at := Transport.now tr);
  Transport.run tr;
  check (Alcotest.float 1e-9) "arrives now" 0.0 !at;
  (* Flat per-message accounting: no hops, each message charged once. *)
  check Alcotest.int "bytes once" 500 (Transport.total_bytes tr);
  check Alcotest.int "one message" 1 (Transport.messages tr)

let test_direct_rejects_bad_args () =
  (match Transport.direct ~nodes:0 () with
  | _ -> Alcotest.fail "nodes = 0 accepted"
  | exception Invalid_argument _ -> ());
  let tr = direct_transport () in
  Alcotest.check_raises "dst out of range"
    (Failure "Transport.direct: node 5 out of range") (fun () ->
      Transport.send tr ~src:0 ~dst:5 ~bytes:1 (fun () -> ()))

let prop_direct_random_schedule_order =
  QCheck.Test.make ~name:"direct: random delays fire in order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (float_bound_inclusive 10.0))
    (fun delays ->
      delays = []
      ||
      let tr = direct_transport () in
      let fired = ref [] in
      List.iter
        (fun d -> Transport.schedule tr ~delay:d (fun () -> fired := Transport.now tr :: !fired))
        delays;
      Transport.run tr;
      let order = List.rev !fired in
      List.sort compare order = order)

(* ------------------------------------------------------------------ *)
(* Crash faults: the crashable wrapper and the reliable layer's channel
   state as data. *)

let test_crashable_cuts_deliveries () =
  let tr, control = Transport.crashable (Transport.direct ~nodes:3 ()) in
  check Alcotest.string "name" "crashable+direct" (Transport.name tr);
  let delivered = ref 0 in
  control.Transport.crash 1;
  check Alcotest.bool "node 1 down" false (control.Transport.is_up 1);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.send tr ~src:0 ~dst:2 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "only the up node heard" 1 !delivered;
  check Alcotest.int "suppression counted" 1 (Atomic.get control.Transport.crash_stats.suppressed);
  (* Bytes are still charged: the failure is at the receiver, not the wire. *)
  check Alcotest.int "bytes charged for both" 20 (Transport.total_bytes tr);
  control.Transport.restart 1;
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "delivers again after restart" 2 !delivered

let test_crashable_up_check_at_arrival () =
  (* A message in flight when its destination crashes dies with it: the
     up-check runs at arrival time, not send time. *)
  let t = line_topology 2 in
  let tr, control = Transport.crashable (Transport.of_sim (Sim.create ~topology:t ~routing:(Routing.compute t) ())) in
  let delivered = ref false in
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> delivered := true);
  (* The link latency is 2 ms; crash node 1 at 1 ms, while the message is
     on the wire. *)
  Transport.schedule tr ~delay:0.001 (fun () -> control.Transport.crash 1);
  Transport.run tr;
  check Alcotest.bool "in-flight message lost" false !delivered;
  check Alcotest.int "counted" 1 (Atomic.get control.Transport.crash_stats.suppressed)

let test_crashable_idempotent_and_ranged () =
  let _, control = Transport.crashable (Transport.direct ~nodes:2 ()) in
  control.Transport.crash 0;
  control.Transport.crash 0;
  check Alcotest.int "double crash counts once" 1 (Atomic.get control.Transport.crash_stats.crashes);
  control.Transport.restart 0;
  control.Transport.restart 0;
  check Alcotest.bool "up again" true (control.Transport.is_up 0);
  (match control.Transport.crash 7 with
  | () -> Alcotest.fail "out-of-range crash accepted"
  | exception Invalid_argument _ -> ());
  match control.Transport.is_up (-1) with
  | _ -> Alcotest.fail "out-of-range is_up accepted"
  | exception Invalid_argument _ -> ()

(* The two owners of channel state behind the one [Chan.handle] seam: an
   in-process Reliable layer (dpc-rel-v1, node 0 sends to 1, node 2 to 0)
   and a socket transport (dpc-chan-v1, local node 0 with sender, ack and
   receiver state). [nodes] are the nodes whose state the codec tests
   round-trip; [advance] moves node 0's channels past any earlier
   snapshot. *)
type chan_world = {
  handle : Chan.handle;
  nodes : int list;
  advance : unit -> unit;
  close : unit -> unit;
}

let reliable_world () =
  let rel = Reliable.wrap (Transport.direct ~nodes:3 ()) in
  let tr = Reliable.transport rel in
  for _ = 1 to 4 do
    Transport.send tr ~src:0 ~dst:1 ~bytes:50 (fun () -> ())
  done;
  Transport.send tr ~src:2 ~dst:0 ~bytes:50 (fun () -> ());
  Transport.run tr;
  let advance () =
    Transport.send tr ~src:0 ~dst:1 ~bytes:50 (fun () -> ());
    Transport.run tr
  in
  { handle = Reliable.channels rel; nodes = [ 0; 1 ]; advance; close = ignore }

let socket_world () =
  let dir = Filename.temp_dir "dpc-chan-" "" in
  let outbox = Outbox.open_ ~dir in
  let sock =
    Socket.create ~nodes:3 ~local:0 ~addr_of:(Printf.sprintf "unix:%s/n%d.sock" dir) ~outbox ()
  in
  let handle = Socket.channels sock in
  handle.raise_next_seq ~src:0 ~dst:1 5;
  Outbox.record_ack outbox ~dst:1 ~seq:3;
  handle.raise_next_seq ~src:0 ~dst:2 2;
  handle.raise_expected ~src:2 ~dst:0 7;
  let advance () =
    handle.raise_next_seq ~src:0 ~dst:1 9;
    handle.raise_expected ~src:2 ~dst:0 9
  in
  let close () =
    Socket.close sock;
    Sys.remove (Filename.concat dir "outbox.log");
    Sys.rmdir dir
  in
  { handle; nodes = [ 0 ]; advance; close }

let with_chan_worlds f =
  List.iter
    (fun (name, make) ->
      let w = make () in
      Fun.protect ~finally:w.close (fun () -> f name w))
    [ ("reliable", reliable_world); ("socket", socket_world) ]

let snapshot w node = Option.get (w.handle.snapshot ~node)

let test_channel_snapshot_roundtrip () =
  with_chan_worlds (fun name w ->
    List.iter
      (fun node ->
        let saved = snapshot w node in
        (* Forget wipes the state a crash would take; restore rebuilds it,
           and a re-snapshot is byte-identical. *)
        w.handle.forget ~node;
        check Alcotest.bool
          (Printf.sprintf "%s: forget changed node %d's state" name node)
          true (snapshot w node <> saved);
        w.handle.restore ~node saved;
        check Alcotest.string
          (Printf.sprintf "%s: node %d's state round-trips" name node)
          saved (snapshot w node))
      w.nodes)

let test_channel_restore_is_monotonic () =
  with_chan_worlds (fun name w ->
    let old = snapshot w 0 in
    (* Advance the channels past the snapshot, then replay the stale blob:
       nothing may move backwards. *)
    w.advance ();
    let fresh = snapshot w 0 in
    check Alcotest.bool (name ^ ": the channels advanced") true (fresh <> old);
    w.handle.restore ~node:0 old;
    check Alcotest.string (name ^ ": stale restore is a no-op") fresh (snapshot w 0))

let test_reliable_persist_observes_advances () =
  let rel = Reliable.wrap (Transport.direct ~nodes:2 ()) in
  let tr = Reliable.transport rel in
  let events = ref [] in
  (Reliable.channels rel).observe (fun ev -> events := ev :: !events);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> ());
  Transport.run tr;
  let next_seqs = List.filter (function Chan.Next_seq _ -> true | _ -> false) !events
  and expecteds = List.filter (function Chan.Expected _ -> true | _ -> false) !events in
  check Alcotest.int "one sender advance" 1 (List.length next_seqs);
  check Alcotest.int "one watermark advance" 1 (List.length expecteds)

let test_channel_restore_rejects_garbage () =
  (* Each codec rejects garbage and the other codec's blob alike. *)
  let blobs = ref [] in
  with_chan_worlds (fun _ w -> blobs := snapshot w 0 :: !blobs);
  let other = function "reliable" -> List.nth !blobs 0 | _ -> List.nth !blobs 1 in
  with_chan_worlds (fun name w ->
    List.iter
      (fun blob ->
        match w.handle.restore ~node:0 blob with
        | () -> Alcotest.failf "%s: accepted %S" name blob
        | exception Dpc_util.Serialize.Corrupt _ -> ())
      [ "not a snapshot"; other name ])

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Both channel-state formats pinned byte for byte. The Reliable blobs
   come from a seeded lossy run (drops, duplicates and delays on every
   channel), mid-run and after quiescence; its delivery counters are
   pinned with them, so the run itself cannot drift. The socket blob
   carries sender, ack and receiver rows. Never edit these values: a
   change here is a change of an on-disk format. *)
let test_channel_goldens () =
  let inner, _ =
    Transport.faulty
      ~config:(Transport.fault_config ~drop:0.2 ~duplicate:0.1 ~delay:0.2 ~delay_max:0.05 ())
      ~rng:(Dpc_util.Rng.create ~seed:42) (Transport.direct ~nodes:3 ())
  in
  let rel = Reliable.wrap inner in
  let tr = Reliable.transport rel in
  let got = Array.make_matrix 3 3 [] in
  for i = 0 to 19 do
    for src = 0 to 2 do
      for dst = 0 to 2 do
        if src <> dst && (i < 12 || src <> 2) then
          Transport.send tr ~src ~dst ~bytes:40 (fun () -> got.(src).(dst) <- i :: got.(src).(dst))
      done
    done
  done;
  let blobs () =
    List.init 3 (fun node -> hex (Option.get ((Reliable.channels rel).snapshot ~node)))
  in
  Transport.run ~until:0.04 tr;
  check (Alcotest.list Alcotest.string) "dpc-rel-v1 mid-run"
    [
      "0a6470632d72656c2d763102011402140201030205";
      "0a6470632d72656c2d763102001402140200060202";
      "0a6470632d72656c2d763102000c010c010107";
    ]
    (blobs ());
  Transport.run tr;
  check (Alcotest.list Alcotest.string) "dpc-rel-v1 quiescent"
    [
      "0a6470632d72656c2d76310201140214020114020c";
      "0a6470632d72656c2d76310200140214020014020c";
      "0a6470632d72656c2d763102000c010c0200140114";
    ]
    (blobs ());
  let s = Reliable.stats rel in
  check (Alcotest.list Alcotest.int) "data, retransmits, acks, dup_dropped, held"
    [ 104; 283; 156; 246; 74 ]
    [ s.data_msgs; s.retransmits; s.acks; s.dup_dropped; s.held ];
  for src = 0 to 2 do
    for dst = 0 to 2 do
      if src <> dst then
        check (Alcotest.list Alcotest.int) "exactly once, in order"
          (List.init (if src = 2 then 12 else 20) Fun.id)
          (List.rev got.(src).(dst))
    done
  done;
  let w = socket_world () in
  Fun.protect ~finally:w.close (fun () ->
    check Alcotest.string "dpc-chan-v1" "0b6470632d6368616e2d763102010503020200010207"
      (hex (snapshot w 0)))

(* ------------------------------------------------------------------ *)
(* The channel model: the receive window of [Chan] against its spec.
   [n] messages are sent on one channel; [arrivals] lists the message
   indices that reach the receiver, in arrival order — a missing index
   is a drop, a repeated one a duplicate, an out-of-order one a reorder.
   At [crash_at] (an arrival position) the receiver crashes: its state
   goes through the codec (snapshot), is wiped (forget) and comes back
   (restore). Afterwards the sender retransmits every message in order,
   as the unacked tail eventually is. The spec: what is delivered is at
   every moment a prefix of what was sent, each message exactly once, in
   order; the watermark covering a delivery is persisted before it; and
   after the final retransmission everything has been delivered. *)

let run_channel_model ~format ~n ~arrivals ~crash_at =
  let base = match format with Chan.Rel_v1 -> 0 | Chan.Chan_v1 -> 1 in
  let tx = Chan.tx ~base in
  let sent = Array.init n (fun _ -> Chan.assign tx) in
  let rx = Chan.rx ~base in
  let persisted = ref base and delivered = ref [] and errors = ref [] in
  let fail fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  let advance w = persisted := w in
  let deliver seq =
    if !persisted <> seq + 1 then
      fail "seq %d delivered with watermark %d persisted" seq !persisted;
    let k = List.length !delivered in
    if k >= n || sent.(k) <> seq then fail "delivery %d is seq %d, not the next sent" k seq;
    delivered := seq :: !delivered
  in
  (* Liveness: the window holds nothing it could deliver. [arrived] is
     what the receiver has seen since its last crash (or delivered). *)
  let arrived = Array.make n false in
  let arrive i =
    arrived.(i) <- true;
    (match Chan.accept rx ~seq:sent.(i) sent.(i) ~advance ~deliver with
    | Overflow -> fail "overflow with %d messages" n
    | Delivered | Duplicate | Held -> ());
    let rec first_gap k = if k < n && arrived.(k) then first_gap (k + 1) else k in
    if List.length !delivered <> first_gap 0 then
      fail "%d delivered, but the first %d have arrived" (List.length !delivered) (first_gap 0)
  in
  let crash () =
    Array.iteri (fun i _ -> if i >= List.length !delivered then arrived.(i) <- false) arrived;
    let blob = Chan.encode format ~sends:[] ~recvs:[ (7, rx) ] in
    Chan.reset_rx rx;
    let _, recvs = Chan.decode format blob in
    List.iter (fun (_, seq) -> ignore (Chan.raise_expected rx seq)) recvs;
    if Chan.expected rx <> !persisted then
      fail "restored watermark %d, persisted %d" (Chan.expected rx) !persisted
  in
  List.iteri
    (fun pos i ->
      if crash_at = Some pos then crash ();
      arrive i)
    arrivals;
  if crash_at = Some (List.length arrivals) then crash ();
  Array.iteri (fun i _ -> arrive i) sent;
  if List.rev !delivered <> Array.to_list sent then
    fail "delivered [%s] after the final retransmission"
      (String.concat ";" (List.rev_map string_of_int !delivered));
  List.rev !errors

let schedule_gen =
  QCheck.Gen.(
    int_range 0 12 >>= fun n ->
    let index = if n = 0 then return [] else list_size (int_range 0 (3 * n)) (int_bound (n - 1)) in
    index >>= fun arrivals ->
    opt (int_bound (List.length arrivals)) >>= fun crash_at ->
    oneofl [ Chan.Rel_v1; Chan.Chan_v1 ] >|= fun format -> (format, n, arrivals, crash_at))

let prop_channel_model =
  QCheck.Test.make ~name:"random drop/dup/reorder + receiver crash" ~count:2000
    (QCheck.make schedule_gen ~print:(fun (_, n, arrivals, crash_at) ->
         Printf.sprintf "n=%d arrivals=[%s] crash_at=%s" n
           (String.concat ";" (List.map string_of_int arrivals))
           (match crash_at with Some k -> string_of_int k | None -> "none")))
    (fun (format, n, arrivals, crash_at) ->
      match run_channel_model ~format ~n ~arrivals ~crash_at with
      | [] -> true
      | errors -> QCheck.Test.fail_report (String.concat "; " errors))

(* Every arrival interleaving of up to three messages, each arriving zero,
   one or two times, with no crash and with a crash at every position. *)
let test_channel_model_exhaustive () =
  let rec interleavings counts =
    if Array.for_all (( = ) 0) counts then [ [] ]
    else
      List.concat
        (List.init (Array.length counts) (fun i ->
             if counts.(i) = 0 then []
             else begin
               let rest = Array.copy counts in
               rest.(i) <- rest.(i) - 1;
               List.map (fun tail -> i :: tail) (interleavings rest)
             end))
  in
  let rec copies n =
    if n = 0 then [ [] ]
    else List.concat_map (fun c -> List.map (fun cs -> c :: cs) (copies (n - 1))) [ 0; 1; 2 ]
  in
  let runs = ref 0 in
  for n = 0 to 3 do
    List.iter
      (fun cs ->
        List.iter
          (fun arrivals ->
            let len = List.length arrivals in
            List.iter
              (fun crash_at ->
                List.iter
                  (fun format ->
                    incr runs;
                    match run_channel_model ~format ~n ~arrivals ~crash_at with
                    | [] -> ()
                    | e :: _ ->
                        Alcotest.failf "n=%d arrivals=[%s]: %s" n
                          (String.concat ";" (List.map string_of_int arrivals)) e)
                  [ Chan.Rel_v1; Chan.Chan_v1 ])
              (None :: List.init (len + 1) Option.some))
          (interleavings (Array.of_list cs)))
      (copies n)
  done;
  (* sum over arrival multisets of (interleavings x (crash points + 1)),
     for both formats *)
  check Alcotest.int "every schedule ran" 3884 !runs

(* The window's refusal and pruning edges: a full window refuses rather
   than grows, and a raised watermark drops what it covers. *)
let test_channel_window_edges () =
  let rx = Chan.rx ~base:0 in
  let advance _ = () and deliver _ = Alcotest.fail "delivered across a gap" in
  for seq = 1 to Chan.hold_cap do
    check Alcotest.bool "held" true (Chan.accept rx ~seq () ~advance ~deliver = Held)
  done;
  check Alcotest.bool "a full window refuses" true
    (Chan.accept rx ~seq:(Chan.hold_cap + 1) () ~advance ~deliver = Overflow);
  check Alcotest.bool "a held re-arrival is a duplicate" true
    (Chan.accept rx ~seq:1 () ~advance ~deliver = Duplicate);
  check Alcotest.bool "raise moves" true (Chan.raise_expected rx 10);
  check Alcotest.bool "raise is monotonic" false (Chan.raise_expected rx 5);
  check Alcotest.bool "the raise freed the covered slots" true
    (Chan.accept rx ~seq:(Chan.hold_cap + 1) () ~advance ~deliver = Held);
  check Alcotest.bool "covered arrivals are duplicates" true
    (Chan.accept rx ~seq:9 () ~advance ~deliver = Duplicate);
  let count = ref 0 in
  check Alcotest.bool "the held copy at the watermark delivers, then the rest drains" true
    (Chan.accept rx ~seq:10 () ~advance ~deliver:(fun () -> incr count) = Delivered);
  check Alcotest.int "everything from 10 up to the cap + 1" (Chan.hold_cap - 8) !count;
  check Alcotest.int "watermark past the window" (Chan.hold_cap + 2) (Chan.expected rx)

(* An arrival that finds the receive window full is refused and counted
   (stats and the receiver's [net.overflow_dropped]); it was never
   acked, so its retransmission delivers it once the gap fills. The
   first transmission on 0 -> 1 is lost, so the next [hold_cap] park
   behind the gap and the one after them overflows. *)
let test_reliable_counts_overflow () =
  let first = ref true in
  let inner, _ =
    Transport.faulty_with
      ~decide:(fun ~src ~dst ~bytes:_ ->
        if src = 0 && dst = 1 && !first then begin
          first := false;
          Transport.F_drop
        end
        else Transport.F_deliver)
      (Transport.direct ~nodes:2 ())
  in
  let registries = Array.init 2 (fun _ -> Dpc_util.Metrics.create ()) in
  let rel = Reliable.wrap ~metrics:(Array.get registries) inner in
  let tr = Reliable.transport rel in
  let got = ref [] in
  let total = Chan.hold_cap + 2 in
  for i = 0 to total - 1 do
    Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> got := i :: !got)
  done;
  Transport.run tr;
  let s = Reliable.stats rel in
  check Alcotest.int "one arrival refused" 1 s.overflow_dropped;
  check Alcotest.int "held up to the cap" Chan.hold_cap s.held;
  check Alcotest.int "counted at the receiver" 1
    (Dpc_util.Metrics.counter_value registries.(1) "net.overflow_dropped");
  check (Alcotest.list Alcotest.int) "exactly once, in order" (List.init total Fun.id)
    (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Partition faults: the partitionable wrapper, outage plans, backoff
   arithmetic, and the suspension/resurrection path. *)

let test_partitionable_directed_links () =
  let tr, control = Transport.partitionable (Transport.direct ~nodes:3 ()) in
  check Alcotest.string "name" "partitionable+direct" (Transport.name tr);
  let delivered = ref 0 in
  control.Transport.set_link ~src:0 ~dst:1 ~up:false;
  check Alcotest.bool "0->1 down" false (control.Transport.link_up ~src:0 ~dst:1);
  check Alcotest.bool "1->0 still up (directed)" true (control.Transport.link_up ~src:1 ~dst:0);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.send tr ~src:1 ~dst:0 ~bytes:10 (fun () -> incr delivered);
  Transport.send tr ~src:0 ~dst:2 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "only the up links heard" 2 !delivered;
  let pstats = control.Transport.partition_stats in
  check Alcotest.int "loss counted" 1 (Atomic.get pstats.lost);
  (* Bytes are charged either way: the cut is at the receiver's side of
     the wire, not the sender's. *)
  check Alcotest.int "bytes charged for all three" 30 (Transport.total_bytes tr);
  (* Idempotence: re-cutting a down link is not a new cut. *)
  control.Transport.set_link ~src:0 ~dst:1 ~up:false;
  check Alcotest.int "double cut counts once" 1 (Atomic.get pstats.cuts);
  control.Transport.set_link ~src:0 ~dst:1 ~up:true;
  control.Transport.set_link ~src:0 ~dst:1 ~up:true;
  check Alcotest.int "double heal counts once" 1 (Atomic.get pstats.heals);
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered);
  Transport.run tr;
  check Alcotest.int "delivers again after heal" 3 !delivered;
  (match control.Transport.set_link ~src:0 ~dst:7 ~up:false with
  | () -> Alcotest.fail "out-of-range set_link accepted"
  | exception Invalid_argument _ -> ());
  match control.Transport.link_up ~src:(-1) ~dst:0 with
  | _ -> Alcotest.fail "out-of-range link_up accepted"
  | exception Invalid_argument _ -> ()

let test_partition_cut_at_arrival () =
  (* A message in flight when its link goes down dies with it: the link
     check runs at arrival time, like the crashable up-check. *)
  let t = line_topology 2 in
  let tr, control =
    Transport.partitionable
      (Transport.of_sim (Sim.create ~topology:t ~routing:(Routing.compute t) ()))
  in
  let delivered = ref false in
  Transport.send tr ~src:0 ~dst:1 ~bytes:10 (fun () -> delivered := true);
  Transport.schedule tr ~delay:0.001 (fun () -> control.Transport.set_link ~src:0 ~dst:1 ~up:false);
  Transport.run tr;
  check Alcotest.bool "in-flight message lost" false !delivered;
  check Alcotest.int "counted" 1 (Atomic.get control.Transport.partition_stats.lost)

let test_partition_plans () =
  (* Constructor validation. *)
  (match Transport.outage ~src:0 ~dst:1 ~from:2.0 ~until:1.0 with
  | _ -> Alcotest.fail "inverted outage accepted"
  | exception Invalid_argument _ -> ());
  (match Transport.outage ~src:0 ~dst:1 ~from:(-1.0) ~until:1.0 with
  | _ -> Alcotest.fail "negative outage accepted"
  | exception Invalid_argument _ -> ());
  (* A split cuts exactly the directed cross pairs, both ways. *)
  let split = Transport.split_plan ~nodes:4 ~left:[ 0; 1 ] ~at:1.0 ~duration:2.0 in
  check Alcotest.int "2x2 split cuts 8 directed links" 8 (List.length split);
  List.iter
    (fun (o : Transport.outage) ->
      let side n = List.mem n [ 0; 1 ] in
      check Alcotest.bool "cut crosses the split" true (side o.link_src <> side o.link_dst);
      check (Alcotest.float 1e-9) "cut at" 1.0 o.from;
      check (Alcotest.float 1e-9) "heal at" 3.0 o.until)
    split;
  check (Alcotest.float 1e-9) "split horizon" 3.0 (Transport.plan_horizon split);
  (* A flap is [cycles] windows per direction, dwell apart. *)
  let flap = Transport.flap_plan ~a:0 ~b:1 ~at:0.5 ~cycles:3 ~down:0.2 ~dwell:0.3 in
  check Alcotest.int "3 cycles x 2 directions" 6 (List.length flap);
  check (Alcotest.float 1e-9) "last flap heals at" (0.5 +. (2.0 *. 0.5) +. 0.2)
    (Transport.plan_horizon flap);
  (* Seeded-random plans are reproducible, in-horizon, and respect the
     duration bounds. *)
  let draw () =
    Transport.random_plan ~seed:42 ~nodes:4 ~count:5 ~horizon:10.0 ~min_down:0.5 ~max_down:2.0
      ~dwell:0.1 ()
  in
  let p1 = draw () and p2 = draw () in
  check Alcotest.bool "same seed, same plan" true (p1 = p2);
  check Alcotest.bool "a different seed diverges" true
    (p1
    <> Transport.random_plan ~seed:43 ~nodes:4 ~count:5 ~horizon:10.0 ~min_down:0.5
         ~max_down:2.0 ~dwell:0.1 ());
  check Alcotest.bool "plan non-empty" true (p1 <> []);
  List.iter
    (fun (o : Transport.outage) ->
      check Alcotest.bool "window inside horizon" true (o.from >= 0.0 && o.from <= 10.0);
      let d = o.until -. o.from in
      check Alcotest.bool "duration within bounds" true (d >= 0.5 && d <= 2.0);
      check Alcotest.bool "directed pair valid" true
        (o.link_src <> o.link_dst && o.link_src >= 0 && o.link_src < 4 && o.link_dst >= 0
       && o.link_dst < 4))
    p1

let test_schedule_plan_applies () =
  let tr, control = Transport.partitionable (Transport.direct ~nodes:2 ()) in
  Transport.schedule_plan tr control (Transport.link_plan ~a:0 ~b:1 ~at:1.0 ~duration:1.0);
  let during = ref 0 and after = ref 0 in
  Transport.schedule tr ~delay:1.5 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~bytes:5 (fun () -> incr during));
  Transport.schedule tr ~delay:2.5 (fun () ->
      Transport.send tr ~src:1 ~dst:0 ~bytes:5 (fun () -> incr after));
  Transport.run tr;
  check Alcotest.int "send during the outage lost" 0 !during;
  check Alcotest.int "send after the heal delivered" 1 !after;
  check Alcotest.int "both directions cut" 2 (Atomic.get control.Transport.partition_stats.cuts);
  check Alcotest.int "both directions healed" 2
    (Atomic.get control.Transport.partition_stats.heals)

let test_backoff_arithmetic () =
  (* No jitter: pure capped exponential. timeout 0.125 doubles to exactly
     the 1.0 cap on the 4th attempt; later attempts stay pinned there. *)
  let config =
    { Reliable.default_config with timeout = 0.125; backoff = 2.0; max_timeout = 1.0 }
  in
  let d attempt = Reliable.backoff_delay config ~src:0 ~dst:1 ~attempt in
  check (Alcotest.float 0.0) "attempt 1" 0.125 (d 1);
  check (Alcotest.float 0.0) "attempt 2" 0.25 (d 2);
  check (Alcotest.float 0.0) "attempt 3" 0.5 (d 3);
  check (Alcotest.float 0.0) "cap reached exactly" 1.0 (d 4);
  check (Alcotest.float 0.0) "cap holds" 1.0 (d 7);
  (* Jitter: deterministic per (src, dst, attempt), inside
     ((1-jitter) * capped, capped]. *)
  let jc = { config with jitter = 0.5 } in
  let jd ~src ~dst attempt = Reliable.backoff_delay jc ~src ~dst ~attempt in
  check (Alcotest.float 0.0) "jitter is deterministic" (jd ~src:0 ~dst:1 4) (jd ~src:0 ~dst:1 4);
  check Alcotest.bool "channels draw different jitter" true
    (jd ~src:0 ~dst:1 4 <> jd ~src:0 ~dst:2 4);
  check Alcotest.bool "attempts draw different jitter" true
    (jd ~src:0 ~dst:1 4 <> jd ~src:0 ~dst:1 5 || jd ~src:0 ~dst:1 5 = 1.0);
  for attempt = 1 to 8 do
    let v = jd ~src:0 ~dst:1 attempt in
    let capped = d attempt in
    check Alcotest.bool "jittered below the cap" true (v <= capped);
    check Alcotest.bool "jittered above the floor" true (v > 0.5 *. capped)
  done;
  (* wrap rejects jitter outside [0, 1). *)
  (match Reliable.wrap ~config:{ config with jitter = 1.0 } (Transport.direct ~nodes:2 ()) with
  | _ -> Alcotest.fail "jitter = 1 accepted"
  | exception Invalid_argument _ -> ());
  match Reliable.wrap ~config:{ config with jitter = -0.1 } (Transport.direct ~nodes:2 ()) with
  | _ -> Alcotest.fail "negative jitter accepted"
  | exception Invalid_argument _ -> ()

(* The wedge regression: before suspension/resurrection, a partition
   outlasting the retry budget abandoned the channel's tail permanently —
   delivery never happened even after the heal. Now the channel parks
   after exactly [max_retries] retransmissions, probes, and re-offers on
   heal. *)
let test_suspension_and_resurrection () =
  let config =
    { Reliable.timeout = 0.1; backoff = 2.0; max_timeout = 10.0; max_retries = 3; jitter = 0.0 }
  in
  let inner, control = Transport.partitionable (Transport.direct ~nodes:2 ()) in
  let rel = Reliable.wrap ~config inner in
  let tr = Reliable.transport rel in
  control.Transport.set_link ~src:0 ~dst:1 ~up:false;
  let delivered = ref 0 in
  Transport.send tr ~src:0 ~dst:1 ~bytes:20 (fun () -> incr delivered);
  (* Retransmits land at 0.1, 0.3, 0.7; the park decision fires at 1.5.
     Just before it, the budget is exhausted but the channel is live. *)
  Transport.run ~until:1.4 tr;
  let s = Reliable.stats rel in
  check Alcotest.int "exactly max_retries retransmissions" 3 s.retransmits;
  check Alcotest.int "not yet suspended" 0 s.suspensions;
  Transport.run ~until:2.0 tr;
  let s = Reliable.stats rel in
  check Alcotest.int "no retransmission past the budget" 3 s.retransmits;
  check Alcotest.int "channel suspended" 1 s.suspensions;
  check Alcotest.int "message parked" 1 s.abandoned;
  check Alcotest.int "park counted" 1 s.parked;
  check Alcotest.int "one channel suspended" 1 (Reliable.suspended_channels rel);
  check Alcotest.int "nothing delivered through the cut" 0 !delivered;
  (* Heal. The next probe crosses, the pong comes back, the channel
     resurrects and re-offers its tail. *)
  control.Transport.set_link ~src:0 ~dst:1 ~up:true;
  Transport.run tr;
  let s = Reliable.stats rel in
  check Alcotest.int "delivered exactly once after the heal" 1 !delivered;
  check Alcotest.int "resurrected" 1 s.resurrections;
  check Alcotest.int "nothing left parked" 0 s.abandoned;
  check Alcotest.int "no channel suspended" 0 (Reliable.suspended_channels rel);
  check Alcotest.bool "probes were sent" true (s.probes > 0)

let test_tree_invalid_args () =
  let rng = Dpc_util.Rng.create ~seed:1 in
  Alcotest.check_raises "n = 0" (Invalid_argument "Tree_topo.generate: n must be positive")
    (fun () -> ignore (Tree_topo.generate ~rng ~n:0 ~backbone_depth:0 ~link));
  Alcotest.check_raises "backbone too deep"
    (Invalid_argument "Tree_topo.generate: backbone_depth out of range") (fun () ->
      ignore (Tree_topo.generate ~rng ~n:5 ~backbone_depth:5 ~link))

let test_transit_stub_invalid_args () =
  let rng = Dpc_util.Rng.create ~seed:1 in
  Alcotest.check_raises "zero transit"
    (Invalid_argument "Transit_stub.generate: counts must be positive") (fun () ->
      ignore (Transit_stub.generate ~rng { Transit_stub.paper_params with transit = 0 }))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dpc_net"
    [
      ( "topology",
        [
          Alcotest.test_case "links" `Quick test_topology_links;
          Alcotest.test_case "rejects bad links" `Quick test_topology_rejects_bad_links;
          Alcotest.test_case "connectivity" `Quick test_topology_connectivity;
        ] );
      ( "transit_stub",
        [
          Alcotest.test_case "shape" `Quick test_transit_stub_shape;
          Alcotest.test_case "link classes" `Quick test_transit_stub_link_classes;
          Alcotest.test_case "path stats near paper" `Quick
            test_transit_stub_path_stats_close_to_paper;
          Alcotest.test_case "deterministic" `Quick test_transit_stub_deterministic;
          Alcotest.test_case "invalid args" `Quick test_transit_stub_invalid_args;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shape" `Quick test_tree_shape;
          Alcotest.test_case "children inverse" `Quick test_tree_children_inverse_of_parent;
          Alcotest.test_case "invalid args" `Quick test_tree_invalid_args;
        ] );
      ( "routing",
        [
          Alcotest.test_case "line" `Quick test_routing_line;
          Alcotest.test_case "prefers low latency" `Quick test_routing_prefers_low_latency;
          Alcotest.test_case "unreachable" `Quick test_routing_unreachable;
          Alcotest.test_case "paths follow links" `Quick test_routing_paths_follow_links;
        ] );
      ( "sim",
        [
          Alcotest.test_case "event ordering" `Quick test_sim_event_ordering;
          Alcotest.test_case "FIFO at equal time" `Quick test_sim_fifo_at_equal_time;
          Alcotest.test_case "per-hop byte accounting" `Quick test_sim_send_accounts_bytes_per_hop;
          Alcotest.test_case "self send" `Quick test_sim_self_send;
          Alcotest.test_case "until limit" `Quick test_sim_until_limit;
          Alcotest.test_case "bucket accounting" `Quick test_sim_bucket_accounting;
          Alcotest.test_case "unreachable send" `Quick test_sim_unreachable_send_fails;
        ]
        @ qsuite [ prop_sim_heap_order ] );
      (* Group names stay within 30 characters: Alcotest shortens every case
         name to fit the longest group name, so a longer one would change how
         every other case in this binary is reported. *)
      ("transport conformance (sim)", conformance sim_transport);
      ("transport conformance (direct)", conformance direct_transport);
      ("conformance (faulty)", conformance faulty_transport);
      ("conformance (crashable)", conformance crashable_transport);
      ("conformance (partitionable)", conformance partitionable_transport);
      ("conformance (reliable)", conformance reliable_transport);
      ("conformance (shard_sim)", conformance shard_transport);
      ( "transport backends",
        [
          Alcotest.test_case "of_sim shares accounting" `Quick test_of_sim_shares_sim_accounting;
          Alcotest.test_case "direct zero latency" `Quick test_direct_zero_latency;
          Alcotest.test_case "direct rejects bad args" `Quick test_direct_rejects_bad_args;
          Alcotest.test_case "decorator names compose" `Quick test_decorator_names_compose;
          Alcotest.test_case "socket address grammar" `Quick test_socket_address_grammar;
        ]
        @ qsuite [ prop_direct_random_schedule_order ] );
      ( "crash faults",
        [
          Alcotest.test_case "crashable cuts deliveries" `Quick test_crashable_cuts_deliveries;
          Alcotest.test_case "up-check at arrival" `Quick test_crashable_up_check_at_arrival;
          Alcotest.test_case "idempotent + range checks" `Quick
            test_crashable_idempotent_and_ranged;
          Alcotest.test_case "channel snapshot round-trips" `Quick
            test_channel_snapshot_roundtrip;
          Alcotest.test_case "stale restore is a no-op" `Quick test_channel_restore_is_monotonic;
          Alcotest.test_case "persist observes advances" `Quick
            test_reliable_persist_observes_advances;
          Alcotest.test_case "garbage snapshot rejected" `Quick
            test_channel_restore_rejects_garbage;
          Alcotest.test_case "channel format goldens" `Quick test_channel_goldens;
        ] );
      ( "channel model",
        [
          Alcotest.test_case "exhaustive interleavings, <= 3 messages" `Quick
            test_channel_model_exhaustive;
          Alcotest.test_case "window edges" `Quick test_channel_window_edges;
          Alcotest.test_case "reliable counts window overflow" `Quick
            test_reliable_counts_overflow;
        ]
        @ qsuite [ prop_channel_model ] );
      ( "partition faults",
        [
          Alcotest.test_case "directed links + counters" `Quick test_partitionable_directed_links;
          Alcotest.test_case "cut at arrival" `Quick test_partition_cut_at_arrival;
          Alcotest.test_case "plan constructors" `Quick test_partition_plans;
          Alcotest.test_case "schedule_plan applies" `Quick test_schedule_plan_applies;
          Alcotest.test_case "backoff arithmetic" `Quick test_backoff_arithmetic;
          Alcotest.test_case "suspension + resurrection (wedge regression)" `Quick
            test_suspension_and_resurrection;
        ] );
    ]
