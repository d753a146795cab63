(* Checkpoint/restore tests: a store serialized to bytes and rebuilt must
   answer every query identically, storage accounting must survive the
   round-trip, and the Advanced store must be able to CONTINUE maintenance
   (its equivalence tables are part of the checkpoint). *)

open Dpc_core

let check = Alcotest.check
let tree_t = Alcotest.testable Prov_tree.pp Prov_tree.equal

let line_link = { Dpc_net.Topology.latency = 0.002; bandwidth = 1e7 }

let topology () =
  let topo = Dpc_net.Topology.create ~n:3 in
  Dpc_net.Topology.add_link topo 0 1 line_link;
  Dpc_net.Topology.add_link topo 1 2 line_link;
  topo

let routes =
  [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
    Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ]

let run_workload scheme payloads =
  let topo = topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  List.iter
    (fun payload ->
      Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload))
    payloads;
  Dpc_engine.Runtime.run runtime;
  (backend, routing)

let payloads = [ "a"; "b"; "c" ]

let storage_t =
  Alcotest.testable
    (fun fmt (s : Rows.storage) ->
      Format.fprintf fmt "prov=%dB/%d rows, ruleExec=%dB/%d rows, equi=%dB, events=%dB"
        s.prov_bytes s.prov_rows s.rule_exec_bytes s.rule_exec_rows s.equi_bytes
        s.event_bytes)
    ( = )

let test_roundtrip_queries name scheme =
  let backend, routing = run_workload scheme payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.restore scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env blob
  in
  List.iter
    (fun payload ->
      let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload in
      let before = (Backend.query backend ~cost:Query_cost.free ~routing out).trees in
      let after = (Backend.query restored ~cost:Query_cost.free ~routing out).trees in
      check (Alcotest.list tree_t) (name ^ ": trees for " ^ payload) before after;
      check Alcotest.bool (name ^ ": found something") true (before <> []))
    payloads

let test_roundtrip_storage name scheme =
  let backend, _ = run_workload scheme payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.restore scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env blob
  in
  check storage_t (name ^ ": storage preserved") (Backend.total_storage backend)
    (Backend.total_storage restored)

let test_checkpoint_is_stable name scheme =
  let backend, _ = run_workload scheme payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.restore scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env blob
  in
  check Alcotest.string (name ^ ": checkpoint of restore is identical") blob
    (Backend.checkpoint restored)

let test_advanced_continues_after_restore () =
  (* The equivalence tables travel with the checkpoint: a packet of an
     already-seen class processed after restore gets existFlag = true and
     adds only a prov delta. *)
  let backend, routing = run_workload Backend.S_advanced payloads in
  let delp = Dpc_apps.Forwarding.delp () in
  let blob = Backend.checkpoint backend in
  let restored = Backend.restore Backend.S_advanced ~delp ~env:Dpc_apps.Forwarding.env blob in
  let topo = topology () in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env
      ~hook:(Backend.hook restored) ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  let before = Backend.total_storage restored in
  Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"d");
  Dpc_engine.Runtime.run runtime;
  let after = Backend.total_storage restored in
  check Alcotest.int "no new chain rows" before.rule_exec_rows after.rule_exec_rows;
  check Alcotest.int "one new prov delta" (before.prov_rows + 1) after.prov_rows;
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"d" in
  check Alcotest.int "new packet queryable via old chain" 1
    (List.length (Backend.query restored ~cost:Query_cost.free ~routing out).trees)

let test_wrong_magic_rejected () =
  let backend, _ = run_workload Backend.S_basic payloads in
  let blob = Backend.checkpoint backend in
  Alcotest.check_raises "exspan magic on basic blob"
    (Dpc_util.Serialize.Corrupt "not an ExSPAN checkpoint") (fun () ->
      ignore
        (Backend.restore Backend.S_exspan ~delp:(Dpc_apps.Forwarding.delp ())
           ~env:Dpc_apps.Forwarding.env blob))

let test_truncated_blob_rejected () =
  let backend, _ = run_workload Backend.S_advanced payloads in
  let blob = Backend.checkpoint backend in
  let truncated = String.sub blob 0 (String.length blob / 2) in
  match
    Backend.restore Backend.S_advanced ~delp:(Dpc_apps.Forwarding.delp ())
      ~env:Dpc_apps.Forwarding.env truncated
  with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Dpc_util.Serialize.Corrupt _ -> ()
  | exception Invalid_argument _ -> () (* a digest cut mid-way *)

(* [Backend.restore] honours the scheme it is given: the Advanced layout
   flag in the blob must agree with the requested scheme, both ways. *)
let test_layout_mismatch_rejected () =
  List.iter
    (fun (taken, asked) ->
      let backend, _ = run_workload taken payloads in
      let blob = Backend.checkpoint backend in
      match
        Backend.restore asked ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env
          blob
      with
      | _ ->
          Alcotest.failf "%s blob restored as %s" (Backend.scheme_name taken)
            (Backend.scheme_name asked)
      | exception Dpc_util.Serialize.Corrupt _ -> ())
    [
      (Backend.S_advanced_interclass, Backend.S_advanced);
      (Backend.S_advanced, Backend.S_advanced_interclass);
    ]

(* Every blob kind rejects trailing bytes: a node checkpoint, a node
   delta and a cluster checkpoint with one byte appended. *)
let test_trailing_bytes_rejected name scheme =
  let backend, _ = run_workload scheme payloads in
  Backend.set_dirty_tracking backend true;
  let delp = Dpc_apps.Forwarding.delp () in
  let env = Dpc_apps.Forwarding.env in
  let expect_corrupt what f =
    match f () with
    | () -> Alcotest.failf "%s: %s with a trailing byte accepted" name what
    | exception Dpc_util.Serialize.Corrupt _ -> ()
  in
  let node_blob = Backend.checkpoint_node backend 1 ^ "\000" in
  let delta = Backend.checkpoint_delta backend 1 ^ "\000" in
  let cluster = Backend.checkpoint backend ^ "\000" in
  let fresh () = Backend.make scheme ~delp ~env ~nodes:3 in
  expect_corrupt "node checkpoint" (fun () -> Backend.restore_node (fresh ()) 1 node_blob);
  expect_corrupt "node delta" (fun () -> Backend.apply_delta (fresh ()) 1 delta);
  expect_corrupt "cluster checkpoint" (fun () ->
    ignore (Backend.restore scheme ~delp ~env cluster))

let test_interclass_layout_roundtrips () =
  let backend, routing = run_workload Backend.S_advanced_interclass payloads in
  let blob = Backend.checkpoint backend in
  let restored =
    Backend.restore Backend.S_advanced_interclass ~delp:(Dpc_apps.Forwarding.delp ())
      ~env:Dpc_apps.Forwarding.env blob
  in
  (* The interclass flag is encoded in the blob, so the restored store uses
     node/link tables and still answers queries. *)
  check Alcotest.string "name" "Advanced+interclass" (Backend.name restored);
  let out = Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"a" in
  check Alcotest.int "query works" 1
    (List.length (Backend.query restored ~cost:Query_cost.free ~routing out).trees)

(* ------------------------------------------------------------------ *)
(* Durable recovery property: a checkpoint cut MID-RUN (forced, on every
   node, while messages are in flight between events) plus the journal
   tail replayed after a later crash answers every query identically to
   the uninterrupted run. Random programs via Delp_gen; the small
   [checkpoint_every] also exercises automatic compaction. *)

let tree_sig tree =
  Dpc_ndlog.Tuple.canonical (Prov_tree.event_of tree) ^ "|" ^ Prov_tree.to_string tree

let world_digests (w : Dpc_testkit.Delp_gen.world) =
  List.map
    (fun (out, (meta : Dpc_engine.Prov_hook.meta)) -> (out, meta.evid))
    (Dpc_engine.Runtime.outputs w.runtime)
  |> List.sort_uniq compare
  |> List.map (fun (out, evid) ->
       let trees =
         (Backend.query w.backend ~cost:Query_cost.free ~routing:w.routing ~evid out).trees
       in
       ( (Dpc_ndlog.Tuple.canonical out, Dpc_util.Sha1.to_hex evid),
         List.sort_uniq compare (List.map tree_sig trees) ))
  |> List.sort compare

let test_midrun_checkpoint name scheme =
  let cache_hits = ref 0 in
  List.iter
    (fun seed ->
      let open Dpc_testkit in
      let instance = Delp_gen.generate ~rng:(Dpc_util.Rng.create ~seed) in
      let spacing = 0.4 in
      let clean =
        Delp_gen.build_world
          ~transport:(Dpc_net.Transport.direct ~nodes:instance.nodes ())
          instance scheme
      in
      Delp_gen.run_events ~spacing clean instance.events;
      let crashable, control =
        Dpc_net.Transport.crashable (Dpc_net.Transport.direct ~nodes:instance.nodes ())
      in
      let world =
        Delp_gen.build_world ~transport:crashable ~reliable:Dpc_net.Reliable.default_config
          instance scheme
      in
      let durable =
        Durable.attach ~backend:world.Delp_gen.backend ~runtime:world.Delp_gen.runtime ~control
          ~config:{ Durable.checkpoint_every = 4; rebase_every = 4 } ()
      in
      let victim = seed mod instance.nodes in
      let tr = Dpc_engine.Runtime.transport world.Delp_gen.runtime in
      Dpc_net.Transport.schedule tr ~delay:1.0 (fun () ->
        for node = 0 to instance.nodes - 1 do
          Durable.checkpoint_now durable node
        done);
      Durable.schedule_crash durable ~node:victim ~at:1.7 ~downtime:0.8;
      Delp_gen.run_events ~spacing world instance.events;
      let stats = Durable.node_stats durable victim in
      check Alcotest.int
        (Printf.sprintf "%s seed %d: victim crashed once" name seed)
        1 stats.crashes;
      check Alcotest.bool
        (Printf.sprintf "%s seed %d: mid-run checkpoint happened" name seed)
        true (stats.checkpoints >= 2);
      let reference = world_digests clean in
      if reference <> world_digests world then
        Alcotest.failf "%s seed %d: queries diverged after mid-run checkpoint + replay\n%s" name
          seed instance.description;
      (* Cache-correctness satellite: a memoization cache attached to the
         recovered world must be invisible — a populating pass and an
         all-hit pass both reproduce the clean run's digests. *)
      let cache = Backend.attach_query_cache world.Delp_gen.backend in
      if reference <> world_digests world then
        Alcotest.failf "%s seed %d: cache-on digests diverged (populating pass)\n%s" name seed
          instance.description;
      if reference <> world_digests world then
        Alcotest.failf "%s seed %d: cache-on digests diverged (hit pass)\n%s" name seed
          instance.description;
      cache_hits := !cache_hits + (Query_cache.stats cache).hits)
    [ 1; 2; 3; 4; 5 ];
  (* Some seeds derive nothing cacheable; across the five the hit pass
     must have served from memory at least once. *)
  check Alcotest.bool (name ^ ": cache served hits") true (!cache_hits > 0)

(* ------------------------------------------------------------------ *)
(* Delta-checkpoint drift suite: a base cut plus a chain of deltas,
   replayed onto a fresh backend, must rebuild state BYTE-IDENTICAL to a
   full checkpoint of the original at the same point — for every scheme.
   This is the invariant that lets [Durable] emit O(changes) deltas
   between periodic full rebases without risking state drift. *)

let batches = [ [ "a"; "b" ]; [ "c"; "d" ]; [ "e" ] ]

let test_delta_drift name scheme =
  let topo = topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  Backend.set_dirty_tracking backend true;
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  let run_batch payloads =
    List.iter
      (fun payload ->
        Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload))
      payloads;
    Dpc_engine.Runtime.run runtime
  in
  (* Cut after every batch: batch 0 seals the full base, later batches
     emit deltas capturing just that batch's changes. *)
  let cuts =
    List.mapi
      (fun i batch ->
        run_batch batch;
        Array.init 3 (fun node ->
          if i = 0 then Backend.checkpoint_node backend node
          else Backend.checkpoint_delta backend node))
      batches
  in
  let replay =
    Backend.make scheme ~delp:(Dpc_apps.Forwarding.delp ()) ~env:Dpc_apps.Forwarding.env
      ~nodes:3
  in
  List.iteri
    (fun i cut ->
      Array.iteri
        (fun node blob ->
          if i = 0 then Backend.restore_node replay node blob
          else Backend.apply_delta replay node blob)
        cut)
    cuts;
  for node = 0 to 2 do
    let full = Backend.checkpoint_node backend node in
    let rebuilt = Backend.checkpoint_node replay node in
    if not (String.equal full rebuilt) then
      Alcotest.failf "%s node %d: delta chain drifted from full checkpoint (full %dB, rebuilt %dB)"
        name node (String.length full) (String.length rebuilt)
  done

(* ------------------------------------------------------------------ *)
(* Format goldens: the SHA-1 of every blob kind, pinned across commits.
   The other persistence tests compare two runs of one build, so a format
   drift that both runs share would pass them; these values were recorded
   once and must never be edited to make a change pass. One fixed 3-node
   forwarding world with dirty tracking on: a first batch, each node's
   full checkpoint, a second batch that opens a new equivalence class at
   node 1, each node's first delta, then the cluster checkpoint. *)

let golden_digests scheme =
  let topo = topology () in
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let backend = Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3 in
  Backend.set_dirty_tracking backend true;
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:(Backend.hook backend) ()
  in
  Dpc_engine.Runtime.load_slow runtime routes;
  let inject packets =
    List.iter
      (fun (src, payload) ->
        Dpc_engine.Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src ~dst:2 ~payload))
      packets;
    Dpc_engine.Runtime.run runtime
  in
  let sha blob = Dpc_util.Sha1.to_hex (Dpc_util.Sha1.digest_string blob) in
  inject [ (0, "a"); (0, "b"); (0, "c") ];
  let nodes = List.init 3 (fun node -> sha (Backend.checkpoint_node backend node)) in
  inject [ (0, "d"); (1, "e") ];
  let deltas = List.init 3 (fun node -> sha (Backend.checkpoint_delta backend node)) in
  nodes @ deltas @ [ sha (Backend.checkpoint backend) ]

let goldens =
  [
    ( Backend.S_exspan,
      [
        "f4527a559faf30d4cbc88d99bd426cd28a517f54";
        "441155ab26322715e59cc7c822c0004a39ee5d28";
        "083a798db1463dc10bfa9e9e065a96ba3ad0c276";
        "852b3da8151d5c7bb25a84a4939f3b25b18907cd";
        "0bb101555863dd1a46d58553d630f3dc706b623f";
        "a9645ecfa3eb2be52a89759ff6c88feb35734a15";
        "3b4657c40c7fe2e8f5971b7f8c80d819bf35f186";
      ] );
    ( Backend.S_basic,
      [
        "3762cbc045c1d94e42d031f5ce078ed317623d1a";
        "c075925d556d87152c8b956758257d1e8d1cfd7d";
        "41bf56b5eace22fd31648391099332b1c6e4f2c8";
        "c8e8aa7fc1184af9cf18255133c427002d2473f8";
        "65ff86228dfba1ac51820d6cf7a00768dae2de5d";
        "7e6827744b643035f9ccc64ffb2c1c9f9cba7169";
        "129a64980f9096635c12377901230e7d0352fe09";
      ] );
    ( Backend.S_advanced,
      [
        "c5e296d6e802d7def4dd3068e31303ecf2e60fb6";
        "2ece7920286dad54feeef4ab972b140d528fb2f3";
        "6d4f9ef1f8b39776d1297c00104aea81dc92887b";
        "e43879e4d237eeb14c96fe86416f5320dd1d50e8";
        "bddc8cc9719dee9a33ab2ed31b9894816a480041";
        "38b8f9acc1645352658c1d739f86638e33045905";
        "75a2dad6ef8fdd6ef88e29959eb3783d5a9e8efe";
      ] );
    ( Backend.S_advanced_interclass,
      [
        "80bb06003c8805d2737b109e3ba5387fa8307adc";
        "56fdf6dc3497c3fa5fdfae9c074dd238e653240e";
        "7182d8b1a247e26458c6c8e33f98a84e8335f507";
        "127da4b015f2ac666d33b04f7c6f33996ffc9859";
        "7c0a53e2b0e5abe7f2a041bfce23f87f78c1704c";
        "27791d3e8d8b68fb98dc7c54b6bedb67dbc5e0be";
        "43fa3d38ff57a235ec82104a8c75a46ada9f2b0a";
      ] );
  ]

let test_format_golden name scheme =
  let labels =
    [ "node 0"; "node 1"; "node 2"; "delta 0"; "delta 1"; "delta 2"; "cluster" ]
  in
  List.iter2
    (fun label (want, got) -> check Alcotest.string (name ^ " " ^ label) want got)
    labels
    (List.combine (List.assoc scheme goldens) (golden_digests scheme))

(* ------------------------------------------------------------------ *)
(* Crash-schedule hygiene: a crash landing at the exact instant a node's
   previous outage ends is an event-queue tie (restart and crash race)
   and must be pruned, not admitted. *)

let schedule_t =
  Alcotest.list (Alcotest.triple Alcotest.int (Alcotest.float 1e-9) (Alcotest.float 1e-9))

let test_prune_overlaps () =
  let pruned =
    Durable.prune_overlaps ~nodes:2
      [ (0, 1.0, 0.5); (0, 1.5, 0.3); (1, 1.5, 0.3); (0, 1.6, 0.2); (0, 0.0, 0.1) ]
  in
  (* (0, 1.5, _) collides with node 0's restart at exactly 1.0 + 0.5 and
     must go; the same instant on node 1 is fine; time 0.0 is a valid
     crash time (busy_until starts at -inf, not 0). *)
  check schedule_t "exact-restart-instant crash rejected"
    [ (0, 0.0, 0.1); (0, 1.0, 0.5); (1, 1.5, 0.3); (0, 1.6, 0.2) ]
    pruned;
  (match Durable.prune_overlaps ~nodes:0 [] with
   | _ -> Alcotest.fail "expected Invalid_argument for nodes = 0"
   | exception Invalid_argument _ -> ());
  match Durable.prune_overlaps ~nodes:1 [ (1, 0.5, 0.1) ] with
  | _ -> Alcotest.fail "expected Invalid_argument for out-of-range node"
  | exception Invalid_argument _ -> ()

let test_random_schedule_no_ties () =
  List.iter
    (fun seed ->
      let sched =
        Durable.random_schedule ~seed ~nodes:3 ~count:40 ~horizon:10.0 ~min_down:0.1
          ~max_down:0.5
      in
      let busy = Array.make 3 Float.neg_infinity in
      List.iter
        (fun (node, at, down) ->
          if at <= busy.(node) then
            Alcotest.failf "seed %d: crash at %.6f while node %d busy until %.6f" seed at node
              busy.(node);
          busy.(node) <- at +. down)
        sched)
    [ 1; 7; 42 ]

let scheme_cases f =
  List.map
    (fun s ->
      Alcotest.test_case (Backend.scheme_name s) `Quick (fun () ->
        f (Backend.scheme_name s) s))
    [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let () =
  Alcotest.run "dpc_persistence"
    [
      ("round-trip queries", scheme_cases test_roundtrip_queries);
      ("round-trip storage", scheme_cases test_roundtrip_storage);
      ("checkpoint stable", scheme_cases test_checkpoint_is_stable);
      ( "advanced",
        [
          Alcotest.test_case "continues after restore" `Quick
            test_advanced_continues_after_restore;
          Alcotest.test_case "interclass layout" `Quick test_interclass_layout_roundtrips;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "wrong magic" `Quick test_wrong_magic_rejected;
          Alcotest.test_case "truncated blob" `Quick test_truncated_blob_rejected;
          Alcotest.test_case "layout mismatch" `Quick test_layout_mismatch_rejected;
        ] );
      ("trailing bytes", scheme_cases test_trailing_bytes_rejected);
      ("mid-run checkpoint + replay", scheme_cases test_midrun_checkpoint);
      ("delta checkpoints", scheme_cases test_delta_drift);
      ("format goldens", scheme_cases test_format_golden);
      ( "crash schedule",
        [
          Alcotest.test_case "prune overlaps" `Quick test_prune_overlaps;
          Alcotest.test_case "random schedule never ties" `Quick test_random_schedule_no_ties;
        ] );
    ]
