(* Tests for dpc_engine: the node-local database, rule evaluation (joins,
   comparisons, assignments, UDFs), symbolic re-derivation, and the
   distributed runtime. *)

open Dpc_ndlog
open Dpc_engine

let check = Alcotest.check
let tuple_t = Alcotest.testable Tuple.pp Tuple.equal

(* ------------------------------------------------------------------ *)
(* Db *)

let route = Dpc_apps.Forwarding.route

let test_db_set_semantics () =
  let db = Db.create () in
  check Alcotest.bool "first insert" true (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.bool "duplicate insert" false (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.int "cardinality" 1 (Db.cardinality db "route");
  check Alcotest.bool "mem" true (Db.mem db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.bool "remove" true (Db.remove db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.bool "remove again" false (Db.remove db (route ~at:0 ~dst:2 ~next:1));
  check Alcotest.int "empty" 0 (Db.total_tuples db)

let test_db_scan_deterministic () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:3 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:4 ~next:2));
  let scan1 = Db.scan db "route" and scan2 = Db.scan db "route" in
  check (Alcotest.list tuple_t) "stable order" scan1 scan2;
  check Alcotest.int "three tuples" 3 (List.length scan1);
  check (Alcotest.list tuple_t) "unknown relation" [] (Db.scan db "nothing")

let test_db_size_bytes_grows () =
  let db = Db.create () in
  let s0 = Db.size_bytes db in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  let s1 = Db.size_bytes db in
  check Alcotest.bool "grows" true (s1 > s0)

let test_db_size_bytes_incremental () =
  (* The O(1) counter must equal the serialize-everything recount at every
     point of a random insert/remove interleaving (with duplicates and
     misses). debug_recount additionally makes size_bytes self-check. *)
  Db.set_debug_recount true;
  Fun.protect
    ~finally:(fun () -> Db.set_debug_recount false)
    (fun () ->
      let db = Db.create () in
      let rng = Dpc_util.Rng.create ~seed:5 in
      let tuple k = route ~at:(k mod 4) ~dst:(k mod 7) ~next:(k mod 3) in
      for step = 0 to 199 do
        let k = Dpc_util.Rng.int rng 25 in
        if Dpc_util.Rng.float rng 1.0 < 0.6 then ignore (Db.insert db (tuple k))
        else ignore (Db.remove db (tuple k));
        check Alcotest.int
          (Printf.sprintf "step %d" step)
          (Db.recount_bytes db) (Db.size_bytes db)
      done)

let test_db_lookup_indexed () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:3 ~next:1));
  ignore (Db.insert db (route ~at:1 ~dst:2 ~next:2));
  let key_02 = [ Value.Addr 0; Value.Addr 2 ] in
  (* First lookup builds the (0,1) index lazily over the existing tuples. *)
  check (Alcotest.list tuple_t) "exact bucket" [ route ~at:0 ~dst:2 ~next:1 ]
    (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:key_02);
  (* ...and the index is maintained by subsequent inserts and removes. *)
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:4));
  check Alcotest.int "sees later insert" 2
    (List.length (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:key_02));
  ignore (Db.remove db (route ~at:0 ~dst:2 ~next:1));
  check (Alcotest.list tuple_t) "sees removal" [ route ~at:0 ~dst:2 ~next:4 ]
    (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:key_02);
  check (Alcotest.list tuple_t) "absent key" []
    (Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:[ Value.Addr 9; Value.Addr 9 ]);
  (* A second index on different positions coexists with the first. *)
  check Alcotest.int "single-position index" 2
    (List.length (Db.lookup db ~rel:"route" ~positions:[ 0 ] ~key:[ Value.Addr 0 ]))

(* Index keys are structural: values of different constructors with the
   same payload are different keys. *)
let test_db_index_keys_by_constructor () =
  let db = Db.create () in
  let tagged = [ Value.Int 5; Value.Addr 5; Value.Str "5"; Value.Bool true; Value.Bool false ] in
  let tuple v = Tuple.make "t" [ Value.Addr 0; v ] in
  List.iter (fun v -> ignore (Db.insert db (tuple v))) tagged;
  (* Too short for position 1: in no bucket, and no error. *)
  ignore (Db.insert db (Tuple.make "t" [ Value.Addr 0 ]));
  List.iter
    (fun v ->
      check (Alcotest.list tuple_t) ("own bucket " ^ Value.to_string v) [ tuple v ]
        (Db.lookup db ~rel:"t" ~positions:[ 1 ] ~key:[ v ]))
    tagged;
  check (Alcotest.list tuple_t) "no Int 6" [] (Db.lookup db ~rel:"t" ~positions:[ 1 ] ~key:[ Value.Int 6 ])

(* A live index keeps each bucket newest first, and a re-inserted tuple
   counts as new. *)
let test_db_bucket_newest_first () =
  let db = Db.create () in
  let lookup () = Db.lookup db ~rel:"route" ~positions:[ 0; 1 ] ~key:[ Value.Addr 0; Value.Addr 2 ] in
  let a = route ~at:0 ~dst:2 ~next:1 and b = route ~at:0 ~dst:2 ~next:2
  and c = route ~at:0 ~dst:2 ~next:3 in
  ignore (Db.insert db a);
  check (Alcotest.list tuple_t) "index built" [ a ] (lookup ());
  List.iter (fun t -> ignore (Db.insert db t)) [ b; c ];
  check (Alcotest.list tuple_t) "newest first" [ c; b; a ] (lookup ());
  ignore (Db.remove db b);
  ignore (Db.insert db b);
  check (Alcotest.list tuple_t) "re-insert is newest" [ b; c; a ] (lookup ())

(* ------------------------------------------------------------------ *)
(* Eval *)

let rule_of src =
  match Parser.parse_rule src with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse error: %s" e

let forwarding_r1 = rule_of "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N)."
let forwarding_r2 = rule_of "r2 recv(@L, S, D, DT) :- packet(@L, S, D, DT), D == L."

let pkt ~at ~src ~dst ~payload =
  Tuple.make "packet" [ Value.Addr at; Value.Addr src; Value.Addr dst; Value.Str payload ]

let test_eval_match_atom () =
  let atom = forwarding_r1.event in
  match Eval.match_atom atom (pkt ~at:0 ~src:0 ~dst:2 ~payload:"x") [] with
  | None -> Alcotest.fail "should match"
  | Some b ->
      check Alcotest.bool "binds L" true (List.assoc "L" b = Value.Addr 0);
      check Alcotest.bool "binds D" true (List.assoc "D" b = Value.Addr 2)

let test_eval_match_atom_consistency () =
  (* r2's event packet(@L, ...) with D == L later; but matching itself must
     reject inconsistent repeated variables. *)
  let atom = rule_of "r p(@X) :- q(@A, B, B)." in
  let ok = Tuple.make "q" [ Value.Addr 0; Value.Int 1; Value.Int 1 ] in
  let bad = Tuple.make "q" [ Value.Addr 0; Value.Int 1; Value.Int 2 ] in
  check Alcotest.bool "consistent repeat" true (Eval.match_atom atom.event ok [] <> None);
  check Alcotest.bool "inconsistent repeat" false (Eval.match_atom atom.event bad [] <> None)

let test_eval_fire_join () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:3 ~next:1));
  let results =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r1 ~event:(pkt ~at:0 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "one result" 1 (List.length results);
  let head, slow = List.hd results in
  check tuple_t "forwarded packet" (pkt ~at:1 ~src:0 ~dst:2 ~payload:"x") head;
  check (Alcotest.list tuple_t) "used route" [ route ~at:0 ~dst:2 ~next:1 ] slow

let test_eval_fire_multiple_matches () =
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:3));
  let results =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r1 ~event:(pkt ~at:0 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "two derivations" 2 (List.length results)

let test_eval_fire_comparison () =
  let db = Db.create () in
  let at_dst =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r2 ~event:(pkt ~at:2 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "fires at destination" 1 (List.length at_dst);
  let en_route =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r2 ~event:(pkt ~at:1 ~src:0 ~dst:2 ~payload:"x")
  in
  check Alcotest.int "silent elsewhere" 0 (List.length en_route)

let test_eval_fire_wrong_event_relation () =
  let db = Db.create () in
  let results =
    Eval.fire ~env:Env.empty ~db ~rule:forwarding_r2 ~event:(route ~at:0 ~dst:1 ~next:1)
  in
  check Alcotest.int "no match" 0 (List.length results)

let test_eval_assignment_and_arith () =
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A, B), Y := (A + B) * 2." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 3; Value.Int 4 ] in
  match Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule ~event with
  | [ (head, []) ] ->
      check tuple_t "computed head" (Tuple.make "out" [ Value.Addr 0; Value.Int 14 ]) head
  | _ -> Alcotest.fail "expected one derivation"

let test_eval_division_by_zero () =
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A), Y := A / 0." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 3 ] in
  Alcotest.check_raises "division by zero" (Eval.Eval_error "division by zero") (fun () ->
    ignore (Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule ~event))

let test_eval_udf () =
  let env =
    Env.register Env.empty "f_double" (function
      | [ Value.Int x ] -> Value.Int (2 * x)
      | _ -> raise (Eval.Eval_error "f_double"))
  in
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A), Y := f_double(A)." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 21 ] in
  match Eval.fire ~env ~db:(Db.create ()) ~rule ~event with
  | [ (head, _) ] ->
      check tuple_t "udf head" (Tuple.make "out" [ Value.Addr 0; Value.Int 42 ]) head
  | _ -> Alcotest.fail "expected one derivation"

let test_eval_unknown_udf () =
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A), Y := f_missing(A)." in
  let event = Tuple.make "ev" [ Value.Addr 0; Value.Int 1 ] in
  Alcotest.check_raises "unknown function" (Eval.Eval_error "unknown function f_missing")
    (fun () -> ignore (Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule ~event))

let test_eval_string_ordering () =
  let rule = rule_of "r1 out(@L, A) :- ev(@L, A, B), A < B." in
  let fire a b =
    Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule
      ~event:(Tuple.make "ev" [ Value.Addr 0; Value.Str a; Value.Str b ])
  in
  check Alcotest.int "abc < abd" 1 (List.length (fire "abc" "abd"));
  check Alcotest.int "abd not < abc" 0 (List.length (fire "abd" "abc"))

let test_fire_with_slow_rederives () =
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:"x" in
  let slow = [ route ~at:0 ~dst:2 ~next:1 ] in
  match Eval.fire_with_slow ~env:Env.empty ~plan:(Eval.plan forwarding_r1) ~event ~slow with
  | Some head -> check tuple_t "re-derived" (pkt ~at:1 ~src:0 ~dst:2 ~payload:"x") head
  | None -> Alcotest.fail "expected a head"

let test_fire_with_slow_rejects_mismatched () =
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:"x" in
  (* A route for a different destination no longer unifies. *)
  let slow = [ route ~at:0 ~dst:3 ~next:1 ] in
  check (Alcotest.option tuple_t) "no head" None
    (Eval.fire_with_slow ~env:Env.empty ~plan:(Eval.plan forwarding_r1) ~event ~slow)

let test_fire_planned_matches_fire () =
  (* The index-driven join must produce the same derivations as the naive
     scan join, as a multiset. *)
  let db = Db.create () in
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:1));
  ignore (Db.insert db (route ~at:0 ~dst:2 ~next:3));
  ignore (Db.insert db (route ~at:0 ~dst:4 ~next:2));
  ignore (Db.insert db (route ~at:1 ~dst:2 ~next:2));
  let norm results =
    List.sort compare
      (List.map
         (fun (head, slow) -> (Tuple.canonical head, List.map Tuple.canonical slow))
         results)
  in
  List.iter
    (fun event ->
      List.iter
        (fun rule ->
          let naive = Eval.fire ~env:Env.empty ~db ~rule ~event in
          let planned = Eval.fire_planned ~env:Env.empty ~db ~plan:(Eval.plan rule) ~event in
          check
            (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
            ("planned = naive on " ^ Tuple.to_string event)
            (norm naive) (norm planned))
        [ forwarding_r1; forwarding_r2 ])
    [
      pkt ~at:0 ~src:0 ~dst:2 ~payload:"x";
      pkt ~at:0 ~src:0 ~dst:4 ~payload:"y";
      pkt ~at:2 ~src:0 ~dst:2 ~payload:"z";
      pkt ~at:3 ~src:0 ~dst:9 ~payload:"dead";
    ]

let test_fire_with_slow_wrong_count () =
  let event = pkt ~at:0 ~src:0 ~dst:2 ~payload:"x" in
  Alcotest.check_raises "arity mismatch"
    (Eval.Eval_error "fire_with_slow: rule r1 expects 1 slow tuples, got 0") (fun () ->
      ignore (Eval.fire_with_slow ~env:Env.empty ~plan:(Eval.plan forwarding_r1) ~event ~slow:[]))

(* The compiled plan against the oracle on shapes the property generator
   does not produce: the derivations agree as a multiset, and so do the
   re-derivations from each recorded slow list. *)
let planned_matches ?(env = Env.empty) name rule db events =
  let plan = Eval.plan rule in
  let norm results =
    List.sort compare
      (List.map (fun (head, slow) -> (Tuple.canonical head, List.map Tuple.canonical slow)) results)
  in
  List.iter
    (fun event ->
      let naive = Eval.fire ~env ~db ~rule ~event in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
        (Printf.sprintf "%s: planned = naive on %s" name (Tuple.to_string event))
        (norm naive)
        (norm (Eval.fire_planned ~env ~db ~plan ~event));
      List.iter
        (fun (head, slow) ->
          check (Alcotest.option tuple_t) (name ^ ": re-derived") (Some head)
            (Eval.fire_with_slow ~env ~plan ~event ~slow))
        naive)
    events

let ev args = Tuple.make "ev" (Value.Addr 0 :: args)

let test_planned_repeated_variable () =
  let db = Db.create () in
  List.iter
    (fun (x, y) -> ignore (Db.insert db (Tuple.make "link" [ Value.Addr 0; Value.Int x; Value.Int y ])))
    [ (1, 1); (1, 2); (3, 3); (2, 1) ];
  List.iter
    (fun (d, n) -> ignore (Db.insert db (route ~at:0 ~dst:d ~next:n)))
    [ (2, 2); (2, 1); (3, 3) ];
  let fired rule event = List.length (Eval.fire_planned ~env:Env.empty ~db ~plan:(Eval.plan rule) ~event) in
  let unbound = rule_of "r1 out(@L, X) :- ev(@L), link(@L, X, X)." in
  planned_matches "unbound repeat" unbound db [ ev [] ];
  check Alcotest.int "X = 1 and X = 3" 2 (fired unbound (ev []));
  let keyed = rule_of "r1 out(@L, D) :- ev(@L, D), route(@L, D, D)." in
  planned_matches "keyed repeat" keyed db (List.map (fun d -> ev [ Value.Addr d ]) [ 1; 2; 3; 4 ]);
  check Alcotest.int "route(@0, 2, 2) only" 1 (fired keyed (ev [ Value.Addr 2 ]))

let test_planned_constants () =
  let db = Db.create () in
  List.iter
    (fun (d, n) -> ignore (Db.insert db (Tuple.make "hop" [ Value.Addr 0; Value.Int d; Value.Int n ])))
    [ (2, 1); (2, 3); (4, 1) ];
  ignore (Db.insert db (Tuple.make "hop" [ Value.Addr 0; Value.Str "2"; Value.Int 5 ]));
  let rule = rule_of "r1 out(@L, N, X) :- ev(@L, 7, X), hop(@L, 2, N)." in
  planned_matches "constants" rule db
    [ ev [ Value.Int 7; Value.Int 1 ]; ev [ Value.Int 8; Value.Int 1 ]; ev [ Value.Str "7"; Value.Int 1 ] ];
  check Alcotest.int "both Int 2 hops" 2
    (List.length
       (Eval.fire_planned ~env:Env.empty ~db ~plan:(Eval.plan rule)
          ~event:(ev [ Value.Int 7; Value.Int 1 ])))

let test_planned_assign_to_bound () =
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A, Y), Y := A + 1." in
  let db = Db.create () in
  planned_matches "recheck" rule db
    [ ev [ Value.Int 1; Value.Int 2 ]; ev [ Value.Int 1; Value.Int 3 ] ];
  let fired event = List.length (Eval.fire_planned ~env:Env.empty ~db ~plan:(Eval.plan rule) ~event) in
  check Alcotest.int "Y = A + 1 holds" 1 (fired (ev [ Value.Int 1; Value.Int 2 ]));
  check Alcotest.int "Y = A + 1 fails" 0 (fired (ev [ Value.Int 1; Value.Int 3 ]))

let test_planned_udf () =
  let env =
    Env.register Env.empty "f_double" (function
      | [ Value.Int x ] -> Value.Int (2 * x)
      | _ -> raise (Eval.Eval_error "f_double"))
  in
  let rule = rule_of "r1 out(@L, Y) :- ev(@L, A), Y := f_double(A), Y > 2." in
  planned_matches ~env "udf" rule (Db.create ()) [ ev [ Value.Int 1 ]; ev [ Value.Int 21 ] ];
  match Eval.fire_planned ~env ~db:(Db.create ()) ~plan:(Eval.plan rule) ~event:(ev [ Value.Int 21 ]) with
  | [ (head, []) ] -> check tuple_t "udf head" (Tuple.make "out" [ Value.Addr 0; Value.Int 42 ]) head
  | _ -> Alcotest.fail "expected one derivation"

let test_planned_errors () =
  let raises name msg rule event =
    let plan = Eval.plan rule in
    Alcotest.check_raises (name ^ " (oracle)") (Eval.Eval_error msg) (fun () ->
      ignore (Eval.fire ~env:Env.empty ~db:(Db.create ()) ~rule ~event));
    Alcotest.check_raises name (Eval.Eval_error msg) (fun () ->
      ignore (Eval.fire_planned ~env:Env.empty ~db:(Db.create ()) ~plan ~event));
    Alcotest.check_raises (name ^ " (re-derivation)") (Eval.Eval_error msg) (fun () ->
      ignore (Eval.fire_with_slow ~env:Env.empty ~plan ~event ~slow:[]))
  in
  raises "division by zero" "division by zero"
    (rule_of "r1 out(@L, Y) :- ev(@L, A), Y := A / 0.")
    (ev [ Value.Int 3 ]);
  raises "unknown function" "unknown function f_missing"
    (rule_of "r1 out(@L, Y) :- ev(@L, A), Y := f_missing(A).")
    (ev [ Value.Int 1 ]);
  raises "ordering across types" "ordering comparison on 1 and \"a\""
    (rule_of "r1 out(@L, A) :- ev(@L, A, B), A < B.")
    (ev [ Value.Int 1; Value.Str "a" ])

(* ------------------------------------------------------------------ *)
(* Env *)

let test_env_shadowing () =
  let env = Env.register Env.empty "f" (fun _ -> Value.Int 1) in
  let env = Env.register env "f" (fun _ -> Value.Int 2) in
  match Env.lookup env "f" with
  | Some f -> check Alcotest.bool "latest wins" true (f [] = Value.Int 2)
  | None -> Alcotest.fail "lookup failed"

(* ------------------------------------------------------------------ *)
(* Runtime *)

let line_world () =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime =
    Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null ()
  in
  Runtime.load_slow runtime
    [ route ~at:0 ~dst:2 ~next:1; route ~at:1 ~dst:2 ~next:2 ];
  (runtime, sim)

let test_runtime_pipeline () =
  let runtime, sim = line_world () in
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"hello");
  Runtime.run runtime;
  let outputs = Runtime.outputs runtime in
  check Alcotest.int "one output" 1 (List.length outputs);
  check tuple_t "recv at n2" (Dpc_apps.Forwarding.recv ~at:2 ~src:0 ~dst:2 ~payload:"hello")
    (fst (List.hd outputs));
  let stats = Runtime.stats runtime in
  check Alcotest.int "injected" 1 stats.injected;
  check Alcotest.int "fired" 3 stats.fired;
  check Alcotest.int "outputs" 1 stats.outputs;
  check Alcotest.int "no dead ends" 0 stats.dead_ends;
  (* Two inter-node shipments of (tuple + overhead). *)
  check Alcotest.bool "bytes on the wire" true (Dpc_net.Sim.total_bytes sim > 0)

let test_runtime_dead_end () =
  let runtime, _ = line_world () in
  (* No route for destination 1 at node 0 and 0 <> 1: the event dies. *)
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:1 ~payload:"x");
  Runtime.run runtime;
  check Alcotest.int "no outputs" 0 (Runtime.stats runtime).outputs;
  check Alcotest.int "one dead end" 1 (Runtime.stats runtime).dead_ends

let test_runtime_rejects_non_event () =
  let runtime, _ = line_world () in
  Alcotest.check_raises "wrong relation"
    (Invalid_argument "Runtime.inject: expected a \"packet\" tuple, got \"route\"") (fun () ->
      Runtime.inject runtime (route ~at:0 ~dst:2 ~next:1))

let test_runtime_sig_broadcast_reaches_all_nodes () =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let seen = ref [] in
  let hook = { Prov_hook.null with on_slow_update = (fun ~node ~op:_ _ -> seen := node :: !seen) } in
  let runtime = Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env ~hook () in
  Runtime.insert_slow_runtime runtime (route ~at:1 ~dst:2 ~next:2);
  Runtime.run runtime;
  check (Alcotest.list Alcotest.int) "all nodes signalled" [ 0; 1; 2 ]
    (List.sort compare !seen);
  check Alcotest.bool "tuple stored" true (Db.mem (Runtime.db runtime 1) (route ~at:1 ~dst:2 ~next:2))

let test_runtime_duplicate_insert_is_silent () =
  (* §5.5: re-inserting a slow tuple already present must neither broadcast
     [sig] nor charge any message accounting. *)
  let runtime, sim = line_world () in
  let msgs () =
    Dpc_util.Metrics.counter (Runtime.metrics_snapshot runtime) "runtime.shipped_msgs"
  in
  check Alcotest.int "load_slow ships nothing" 0 (msgs ());
  Runtime.insert_slow_runtime runtime (route ~at:0 ~dst:2 ~next:1);
  Runtime.run runtime;
  check Alcotest.int "duplicate insert ships nothing" 0 (msgs ());
  check Alcotest.int "no bytes on the wire" 0 (Dpc_net.Sim.total_bytes sim);
  Runtime.insert_slow_runtime runtime (route ~at:0 ~dst:5 ~next:1);
  Runtime.run runtime;
  check Alcotest.bool "fresh insert broadcasts" true (msgs () > 0)

let test_runtime_delete_broadcasts_sig () =
  (* §5.5 fix: a deletion is a slow-table update and must broadcast [sig]
     to every node, tagged with the delete op. *)
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let seen = ref [] in
  let hook =
    { Prov_hook.null with
      on_slow_update = (fun ~node ~op _ -> seen := (node, op) :: !seen)
    }
  in
  let runtime =
    Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook ()
  in
  Runtime.load_slow runtime [ route ~at:1 ~dst:2 ~next:2 ];
  (* Deleting an absent tuple is a no-op: no signal, returns false. *)
  check Alcotest.bool "absent delete" false
    (Runtime.delete_slow_runtime runtime (route ~at:1 ~dst:9 ~next:2));
  Runtime.run runtime;
  check Alcotest.int "absent delete is silent" 0 (List.length !seen);
  check Alcotest.bool "present delete" true
    (Runtime.delete_slow_runtime runtime (route ~at:1 ~dst:2 ~next:2));
  Runtime.run runtime;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "delete signalled on every node"
    [ (0, true); (1, true); (2, true) ]
    (List.sort compare
       (List.map (fun (n, op) -> (n, op = Prov_hook.Slow_delete)) !seen));
  check Alcotest.bool "tuple gone" false
    (Db.mem (Runtime.db runtime 1) (route ~at:1 ~dst:2 ~next:2));
  check Alcotest.bool "sig bytes accounted" true
    (Dpc_util.Metrics.counter (Runtime.metrics_snapshot runtime) "runtime.shipped_msgs" > 0)

let test_runtime_record_outputs_off () =
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime =
    Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
      ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null ~record_outputs:false ()
  in
  Runtime.load_slow runtime [ route ~at:0 ~dst:2 ~next:1; route ~at:1 ~dst:2 ~next:2 ];
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Runtime.run runtime;
  check Alcotest.int "outputs not retained" 0 (List.length (Runtime.outputs runtime));
  check Alcotest.int "stats still count" 1 (Runtime.stats runtime).outputs;
  check Alcotest.int "metrics still count" 1
    (Dpc_util.Metrics.counter (Runtime.metrics_snapshot runtime) "runtime.outputs")

let test_runtime_multipath_derivations () =
  (* Two routes at n0 toward n2: the packet is duplicated (both derivations
     execute), and two recv outputs arrive. *)
  let topo = Dpc_net.Topology.create ~n:3 in
  let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e7 } in
  Dpc_net.Topology.add_link topo 0 1 l;
  Dpc_net.Topology.add_link topo 1 2 l;
  Dpc_net.Topology.add_link topo 0 2 l;
  let routing = Dpc_net.Routing.compute topo in
  let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime = Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null () in
  Runtime.load_slow runtime
    [ route ~at:0 ~dst:2 ~next:1; route ~at:0 ~dst:2 ~next:2; route ~at:1 ~dst:2 ~next:2 ];
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x");
  Runtime.run runtime;
  (* The two copies produce the same recv tuple; both executions complete. *)
  check Alcotest.int "two deliveries" 2 (Runtime.stats runtime).outputs

(* The quickstart pipeline must report work through the metrics registry
   under either transport backend: the runtime records into per-node
   registries (Node.metrics) and [metrics_snapshot] merges them. *)
let run_quickstart transport =
  let delp = Dpc_apps.Forwarding.delp () in
  let runtime =
    Runtime.create ~transport ~delp ~env:Dpc_apps.Forwarding.env ~hook:Prov_hook.null ()
  in
  Runtime.load_slow runtime [ route ~at:0 ~dst:2 ~next:1; route ~at:1 ~dst:2 ~next:2 ];
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"hello");
  Runtime.run runtime;
  runtime

let check_metrics_nonzero runtime =
  let s = Runtime.metrics_snapshot runtime in
  check Alcotest.int "injected" 1 (Dpc_util.Metrics.counter s "runtime.injected");
  check Alcotest.int "fired" 3 (Dpc_util.Metrics.counter s "runtime.fired");
  check Alcotest.int "outputs" 1 (Dpc_util.Metrics.counter s "runtime.outputs");
  check Alcotest.bool "shipped msgs" true
    (Dpc_util.Metrics.counter s "runtime.shipped_msgs" > 0);
  check Alcotest.bool "shipped bytes" true
    (Dpc_util.Metrics.counter s "runtime.shipped_bytes" > 0)

let test_runtime_metrics_sim () =
  let runtime, _ = line_world () in
  Runtime.inject runtime (Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"hello");
  Runtime.run runtime;
  check_metrics_nonzero runtime

let test_runtime_metrics_direct () =
  let runtime = run_quickstart (Dpc_net.Transport.direct ~nodes:3 ()) in
  check_metrics_nonzero runtime;
  (* Same logical pipeline: stats agree with the sim-backed run. *)
  check Alcotest.int "one output" 1 (Runtime.stats runtime).outputs;
  check Alcotest.int "fired" 3 (Runtime.stats runtime).fired

let test_runtime_metrics_live_on_nodes () =
  (* Snapshots are per node: n0 forwards (fires), n2 receives (output). *)
  let runtime = run_quickstart (Dpc_net.Transport.direct ~nodes:3 ()) in
  let at n = Dpc_engine.Node.metrics (Runtime.node runtime n) in
  check Alcotest.int "n0 fired" 1 (Dpc_util.Metrics.counter_value (at 0) "runtime.fired");
  check Alcotest.int "n2 output" 1 (Dpc_util.Metrics.counter_value (at 2) "runtime.outputs");
  check Alcotest.int "n2 no injections" 0
    (Dpc_util.Metrics.counter_value (at 2) "runtime.injected")

let () =
  Alcotest.run "dpc_engine"
    [
      ( "db",
        [
          Alcotest.test_case "set semantics" `Quick test_db_set_semantics;
          Alcotest.test_case "deterministic scan" `Quick test_db_scan_deterministic;
          Alcotest.test_case "size bytes" `Quick test_db_size_bytes_grows;
          Alcotest.test_case "incremental size bytes" `Quick test_db_size_bytes_incremental;
          Alcotest.test_case "keyed lookup" `Quick test_db_lookup_indexed;
          Alcotest.test_case "keys by constructor" `Quick test_db_index_keys_by_constructor;
          Alcotest.test_case "bucket newest first" `Quick test_db_bucket_newest_first;
        ] );
      ( "eval",
        [
          Alcotest.test_case "match atom" `Quick test_eval_match_atom;
          Alcotest.test_case "repeated variables" `Quick test_eval_match_atom_consistency;
          Alcotest.test_case "join" `Quick test_eval_fire_join;
          Alcotest.test_case "multiple matches" `Quick test_eval_fire_multiple_matches;
          Alcotest.test_case "comparison" `Quick test_eval_fire_comparison;
          Alcotest.test_case "wrong event relation" `Quick test_eval_fire_wrong_event_relation;
          Alcotest.test_case "assignment and arithmetic" `Quick test_eval_assignment_and_arith;
          Alcotest.test_case "division by zero" `Quick test_eval_division_by_zero;
          Alcotest.test_case "udf" `Quick test_eval_udf;
          Alcotest.test_case "unknown udf" `Quick test_eval_unknown_udf;
          Alcotest.test_case "string ordering" `Quick test_eval_string_ordering;
          Alcotest.test_case "fire_with_slow rederives" `Quick test_fire_with_slow_rederives;
          Alcotest.test_case "fire_with_slow rejects mismatch" `Quick
            test_fire_with_slow_rejects_mismatched;
          Alcotest.test_case "fire_with_slow wrong count" `Quick test_fire_with_slow_wrong_count;
          Alcotest.test_case "planned fire matches naive" `Quick test_fire_planned_matches_fire;
          Alcotest.test_case "planned: repeated variable" `Quick test_planned_repeated_variable;
          Alcotest.test_case "planned: constants" `Quick test_planned_constants;
          Alcotest.test_case "planned: assign to bound" `Quick test_planned_assign_to_bound;
          Alcotest.test_case "planned: udf" `Quick test_planned_udf;
          Alcotest.test_case "planned: errors" `Quick test_planned_errors;
        ] );
      ("env", [ Alcotest.test_case "shadowing" `Quick test_env_shadowing ]);
      ( "runtime",
        [
          Alcotest.test_case "pipeline" `Quick test_runtime_pipeline;
          Alcotest.test_case "dead end" `Quick test_runtime_dead_end;
          Alcotest.test_case "rejects non-event" `Quick test_runtime_rejects_non_event;
          Alcotest.test_case "sig broadcast" `Quick test_runtime_sig_broadcast_reaches_all_nodes;
          Alcotest.test_case "duplicate insert silent" `Quick test_runtime_duplicate_insert_is_silent;
          Alcotest.test_case "delete broadcasts sig" `Quick test_runtime_delete_broadcasts_sig;
          Alcotest.test_case "record_outputs off" `Quick test_runtime_record_outputs_off;
          Alcotest.test_case "multipath derivations" `Quick test_runtime_multipath_derivations;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quickstart counters (sim)" `Quick test_runtime_metrics_sim;
          Alcotest.test_case "quickstart counters (direct)" `Quick test_runtime_metrics_direct;
          Alcotest.test_case "per-node attribution" `Quick test_runtime_metrics_live_on_nodes;
        ] );
    ]
