(* Robustness tests: message reordering (the §5.6 out-of-order concern),
   graceful degradation on mismatched programs, and query behaviour against
   stores with missing pieces. *)

open Dpc_core

let check = Alcotest.check

let line_link = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 }

(* ------------------------------------------------------------------ *)
(* Jitter mechanics *)

let test_jitter_reorders_messages () =
  let topo = Dpc_net.Topology.create ~n:2 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let jitter = 0.5 and seed = 3 in
  let sim = Dpc_net.Sim.create ~jitter ~seed ~topology:topo ~routing () in
  let arrivals = ref [] in
  for i = 1 to 20 do
    Dpc_net.Sim.send sim ~src:0 ~dst:1 ~bytes:10 (fun () -> arrivals := i :: !arrivals)
  done;
  Dpc_net.Sim.run sim;
  let order = List.rev !arrivals in
  (* The exact permutation is derivable: every send has the same base
     latency (same path, same size), plus one jitter draw from the seeded
     stream, consumed in send order. The heap breaks arrival-time ties by
     scheduling order, so the expected order is a stable sort of the
     messages by their jitter draw. *)
  let rng = Dpc_util.Rng.create ~seed in
  let draws = Array.init 20 (fun i -> (Dpc_util.Rng.float rng jitter, i + 1)) in
  Array.sort compare draws;
  let expected = Array.to_list (Array.map snd draws) in
  check (Alcotest.list Alcotest.int) "the seeded permutation" expected order;
  check Alcotest.bool "and it is a real reordering" true
    (expected <> List.init 20 (fun i -> i + 1))

let test_zero_jitter_preserves_order () =
  let topo = Dpc_net.Topology.create ~n:2 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let arrivals = ref [] in
  for i = 1 to 20 do
    Dpc_net.Sim.send sim ~src:0 ~dst:1 ~bytes:10 (fun () -> arrivals := i :: !arrivals)
  done;
  Dpc_net.Sim.run sim;
  check (Alcotest.list Alcotest.int) "FIFO" (List.init 20 (fun i -> i + 1)) (List.rev !arrivals)

let test_run_until_boundary () =
  (* [run ~until] is a half-open horizon: an event exactly at [until]
     stays queued for the next run, and equal-time events pushed back at
     the horizon keep their scheduling order. *)
  let topo = Dpc_net.Topology.create ~n:2 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let fired = ref [] in
  let mark label () = fired := label :: !fired in
  Dpc_net.Sim.schedule sim ~delay:1.0 (mark "early");
  Dpc_net.Sim.schedule sim ~delay:2.0 (mark "boundary-a");
  Dpc_net.Sim.schedule sim ~delay:2.0 (mark "boundary-b");
  Dpc_net.Sim.schedule sim ~delay:3.0 (mark "late");
  Dpc_net.Sim.run sim ~until:2.0;
  check (Alcotest.list Alcotest.string) "events at [until] stay queued" [ "early" ]
    (List.rev !fired);
  Dpc_net.Sim.run sim ~until:3.0;
  check (Alcotest.list Alcotest.string) "the [2, 3) window, in seq order"
    [ "early"; "boundary-a"; "boundary-b" ] (List.rev !fired);
  Dpc_net.Sim.run sim;
  check (Alcotest.list Alcotest.string) "the rest"
    [ "early"; "boundary-a"; "boundary-b"; "late" ] (List.rev !fired)

let test_negative_jitter_rejected () =
  let topo = Dpc_net.Topology.create ~n:2 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  let routing = Dpc_net.Routing.compute topo in
  Alcotest.check_raises "negative jitter" (Invalid_argument "Sim.create: negative jitter")
    (fun () -> ignore (Dpc_net.Sim.create ~jitter:(-1.0) ~topology:topo ~routing ()))

(* ------------------------------------------------------------------ *)
(* Losslessness under reordering: packets racing each other through the
   network must not corrupt any scheme's provenance. *)

let jittery_run ~hook =
  let topo = Dpc_net.Topology.create ~n:4 in
  List.iter
    (fun (a, b) -> Dpc_net.Topology.add_link topo a b line_link)
    [ (0, 1); (1, 2); (2, 3) ];
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~jitter:0.05 ~seed:11 ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [
      Dpc_apps.Forwarding.route ~at:0 ~dst:3 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:3 ~next:2;
      Dpc_apps.Forwarding.route ~at:2 ~dst:3 ~next:3;
    ];
  for i = 1 to 25 do
    Dpc_engine.Runtime.inject runtime
      (Dpc_apps.Forwarding.packet ~src:0 ~dst:3 ~payload:(Printf.sprintf "p%d" i))
  done;
  Dpc_engine.Runtime.run runtime;
  (routing, runtime)

let jittery_world scheme =
  let backend =
    Backend.make scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env ~nodes:4
  in
  let routing, runtime = jittery_run ~hook:(Backend.hook backend) in
  (backend, routing, runtime)

let test_losslessness_under_jitter () =
  let reference, routing, _ = jittery_world Backend.S_exspan in
  List.iter
    (fun scheme ->
      let backend, routing', runtime = jittery_world scheme in
      ignore routing';
      check Alcotest.int
        (Backend.scheme_name scheme ^ ": all delivered")
        25
        (Dpc_engine.Runtime.stats runtime).outputs;
      for i = 1 to 25 do
        let out =
          Dpc_apps.Forwarding.recv ~at:3 ~src:0 ~dst:3 ~payload:(Printf.sprintf "p%d" i)
        in
        let expected = (Backend.query reference ~cost:Query_cost.free ~routing out).trees in
        let got = (Backend.query backend ~cost:Query_cost.free ~routing out).trees in
        check
          (Alcotest.list (Alcotest.testable Prov_tree.pp Prov_tree.equal))
          (Printf.sprintf "%s: packet %d" (Backend.scheme_name scheme) i)
          expected got
      done)
    [ Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

(* ------------------------------------------------------------------ *)
(* Graceful degradation *)

let test_query_with_wrong_program_is_empty () =
  (* A checkpoint restored under a different program: queries cannot
     re-derive (unknown rules) and must return empty, not crash. *)
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make Backend.S_basic ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Dpc_engine.Runtime.run runtime;
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.restore Backend.S_basic ~delp:(Dpc_apps.Dhcp.delp ()) ~env:Dpc_apps.Dhcp.env blob
  in
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
  let result = Backend.query restored ~cost:Query_cost.free ~routing out in
  check Alcotest.int "no trees, no crash" 0 (List.length result.trees)

let test_query_empty_store () =
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
  let result = Backend.query backend ~cost:Query_cost.emulation ~routing out in
  check Alcotest.int "empty store, empty result" 0 (List.length result.trees);
  check Alcotest.bool "still charged the lookup" true (result.latency > 0.0)

let test_advanced_orphan_counting () =
  (* A flag=true output whose class has no hmap entry (the §5.5 race) is
     counted, not stored. The race cannot be forced from outside (hmap is
     never cleared), so check the counter stays 0 on a clean run where
     packets overtake each other: all 25 outputs arrive, every one of them
     gets its prov delta, and all 25 share the first packet's chain. *)
  let delp = Dpc_apps.Forwarding.delp () in
  let keys = Dpc_analysis.Equi_keys.compute delp in
  let store = Store_advanced.create ~delp ~env:Dpc_apps.Forwarding.env ~keys ~nodes:4 () in
  let _, runtime = jittery_run ~hook:(Store.hook store) in
  check Alcotest.int "all delivered" 25 (Dpc_engine.Runtime.stats runtime).outputs;
  check Alcotest.int "no orphans" 0 (Store_advanced.orphan_outputs store);
  check Alcotest.int "a prov delta per output" 25 (Store.total_storage store).prov_rows;
  check Alcotest.int "one shared chain of 4 rows" 4 (Store.total_storage store).rule_exec_rows

(* ------------------------------------------------------------------ *)
(* Degraded queries against crashed nodes: bounded, partial, never hung. *)

let line_world scheme =
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Dpc_engine.Runtime.run runtime;
  (backend, routing)

let down_budget =
  float_of_int (Query_cost.simulation.down_retries + 1) *. Query_cost.simulation.down_timeout

let test_query_down_node_is_partial () =
  List.iter
    (fun scheme ->
      let name = Backend.scheme_name scheme in
      let backend, routing = line_world scheme in
      let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
      (* Sanity: with everyone up, the query is complete and non-empty. *)
      let healthy = Backend.query backend ~cost:Query_cost.simulation ~routing out in
      check Alcotest.bool (name ^ ": healthy query complete") true healthy.Query_result.complete;
      check Alcotest.bool (name ^ ": healthy query non-empty") true (healthy.trees <> []);
      (* Node 1 carries the middle of every chain: with it down, the query
         returns promptly — charged the bounded retry budget — marked
         partial, and raises nothing. *)
      let degraded =
        Backend.query backend ~cost:Query_cost.simulation ~routing ~up:(fun n -> n <> 1) out
      in
      check Alcotest.bool (name ^ ": result marked partial") false
        degraded.Query_result.complete;
      check Alcotest.bool (name ^ ": charged the down budget") true
        (degraded.latency >= down_budget);
      check Alcotest.bool (name ^ ": latency bounded") true
        (degraded.latency <= healthy.latency +. (10.0 *. down_budget));
      (* The degradation is visible in the querier's metrics. *)
      let m = Dpc_engine.Node.metrics (Backend.nodes backend).(2) in
      check Alcotest.bool (name ^ ": crash.queries_degraded ticked") true
        (Dpc_util.Metrics.counter_value m "crash.queries_degraded" >= 1))
    [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let test_query_down_querier_is_partial () =
  let backend, routing = line_world Backend.S_basic in
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
  let degraded =
    Backend.query backend ~cost:Query_cost.simulation ~routing ~up:(fun n -> n <> 2) out
  in
  check Alcotest.bool "partial" false degraded.Query_result.complete;
  check Alcotest.int "no trees from a down querier" 0 (List.length degraded.trees);
  check Alcotest.bool "still charged" true (degraded.latency >= down_budget)

let test_query_during_partition_is_bounded () =
  (* End to end through partitionable: the world ingests over the faulted
     transport, a partition cuts the querier off from the middle of the
     chain, and the degraded [?up] query (the link state as the up
     predicate) must return promptly — bounded by the retry budget —
     marked partial. After the heal, the same query is complete again. *)
  let parted, control = Dpc_net.Transport.partitionable (Dpc_net.Transport.direct ~nodes:3 ()) in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:parted ~reliable:Dpc_net.Reliable.default_config ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:(Backend.hook backend) ~nodes:(Backend.nodes backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Dpc_engine.Runtime.run runtime;
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
  (* The querier sits at node 2; a node is reachable iff the directed
     link from the querier is up. *)
  let q () =
    Backend.query backend ~cost:Query_cost.simulation ~routing
      ~up:(fun n -> n = 2 || control.Dpc_net.Transport.link_up ~src:2 ~dst:n)
      out
  in
  let healthy = q () in
  check Alcotest.bool "healthy complete" true healthy.Query_result.complete;
  control.Dpc_net.Transport.set_link ~src:2 ~dst:1 ~up:false;
  let during = q () in
  check Alcotest.bool "partial during the partition" false during.Query_result.complete;
  check Alcotest.bool "charged the down budget" true (during.latency >= down_budget);
  check Alcotest.bool "latency bounded" true
    (during.latency <= healthy.latency +. (10.0 *. down_budget));
  control.Dpc_net.Transport.set_link ~src:2 ~dst:1 ~up:true;
  let after = q () in
  check Alcotest.bool "complete after the heal" true after.Query_result.complete;
  check
    (Alcotest.list (Alcotest.testable Prov_tree.pp Prov_tree.equal))
    "same trees as before the cut" healthy.trees after.trees

let test_query_recovers_after_restart () =
  (* End to end through Durable: query during the outage is partial, the
     same query after recovery is complete and identical to healthy. *)
  let crashable, control = Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes:3 ()) in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:crashable ~reliable:Dpc_net.Reliable.default_config
      ~delp ~env:Dpc_apps.Forwarding.env ~hook:(Backend.hook backend)
      ~nodes:(Backend.nodes backend) ()
  in
  let durable = Dpc_core.Durable.attach ~backend ~runtime ~control () in
  Dpc_engine.Runtime.load_slow runtime
    [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
      Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Dpc_engine.Runtime.run runtime;
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  let routing = Dpc_net.Routing.compute topo in
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"x" in
  let q () =
    Backend.query backend ~cost:Query_cost.simulation ~routing
      ~up:(Dpc_core.Durable.is_up durable) out
  in
  let healthy = q () in
  check Alcotest.bool "healthy complete" true healthy.Query_result.complete;
  Dpc_core.Durable.crash durable 1;
  let during = q () in
  check Alcotest.bool "partial during outage" false during.Query_result.complete;
  Dpc_core.Durable.restart durable 1;
  Dpc_engine.Runtime.run runtime;
  let after = q () in
  check Alcotest.bool "complete after recovery" true after.Query_result.complete;
  check
    (Alcotest.list (Alcotest.testable Prov_tree.pp Prov_tree.equal))
    "same trees as before the crash" healthy.trees after.trees

let () =
  Alcotest.run "dpc_robustness"
    [
      ( "jitter",
        [
          Alcotest.test_case "reorders messages" `Quick test_jitter_reorders_messages;
          Alcotest.test_case "zero jitter is FIFO" `Quick test_zero_jitter_preserves_order;
          Alcotest.test_case "run ~until boundary" `Quick test_run_until_boundary;
          Alcotest.test_case "negative rejected" `Quick test_negative_jitter_rejected;
        ] );
      ( "losslessness under reordering",
        [ Alcotest.test_case "all schemes" `Quick test_losslessness_under_jitter ] );
      ( "graceful degradation",
        [
          Alcotest.test_case "wrong program" `Quick test_query_with_wrong_program_is_empty;
          Alcotest.test_case "empty store" `Quick test_query_empty_store;
          Alcotest.test_case "orphan counter" `Quick test_advanced_orphan_counting;
        ] );
      ( "degraded queries",
        [
          Alcotest.test_case "down node marks partial" `Quick test_query_down_node_is_partial;
          Alcotest.test_case "down querier marks partial" `Quick
            test_query_down_querier_is_partial;
          Alcotest.test_case "recovers after restart" `Quick test_query_recovers_after_restart;
          Alcotest.test_case "bounded during a partition" `Quick
            test_query_during_partition_is_bounded;
        ] );
    ]
