(* Program-level property tests: the paper's theorems checked on randomly
   generated DELPs (programs no human wrote), not just on the two evaluation
   applications. Uses dpc_testkit's generator, which produces valid,
   well-typed linear programs with matching databases and event streams. *)

open Dpc_core
open Dpc_testkit

let check = Alcotest.check

let all_schemes =
  [ Backend.S_exspan; Backend.S_basic; Backend.S_advanced; Backend.S_advanced_interclass ]

let outputs world =
  List.map fst (Dpc_engine.Runtime.outputs world.Delp_gen.runtime)

(* Distinct (output tuple, evid) pairs produced by a run. *)
let queryable world =
  List.map
    (fun (out, (meta : Dpc_engine.Prov_hook.meta)) -> (out, meta.evid))
    (Dpc_engine.Runtime.outputs world.Delp_gen.runtime)
  |> List.sort_uniq compare

let query world ?evid out =
  Backend.query world.Delp_gen.backend ~cost:Query_cost.free ~routing:world.Delp_gen.routing
    ?evid out

let tree_sig tree = Dpc_ndlog.Tuple.canonical (Prov_tree.event_of tree) ^ "|" ^ Prov_tree.to_string tree

(* ------------------------------------------------------------------ *)
(* Property 1 (Theorem 3 on random programs): every scheme produces the
   same outputs, and for every (output, evid) the reconstructed tree sets
   are identical across schemes. *)

let losslessness_on seed =
  let rng = Dpc_util.Rng.create ~seed in
  let instance = Delp_gen.generate ~rng in
  let worlds =
    List.map
      (fun scheme ->
        let w = Delp_gen.build_world instance scheme in
        Delp_gen.run_events w instance.events;
        (scheme, w))
      all_schemes
  in
  let reference_scheme, reference = List.hd worlds in
  let ref_outputs = List.sort compare (List.map Dpc_ndlog.Tuple.canonical (outputs reference)) in
  List.iter
    (fun (scheme, w) ->
      let got = List.sort compare (List.map Dpc_ndlog.Tuple.canonical (outputs w)) in
      if got <> ref_outputs then
        Alcotest.failf "seed %d: %s and %s disagree on outputs for program:\n%s" seed
          (Backend.scheme_name reference_scheme) (Backend.scheme_name scheme)
          instance.description)
    worlds;
  List.iter
    (fun (out, evid) ->
      let ref_trees =
        List.sort_uniq compare (List.map tree_sig (query reference ~evid out).trees)
      in
      if ref_trees = [] then
        Alcotest.failf "seed %d: reference scheme found no tree for an output of program:\n%s"
          seed instance.description;
      List.iter
        (fun (scheme, w) ->
          let got = List.sort_uniq compare (List.map tree_sig (query w ~evid out).trees) in
          if got <> ref_trees then
            Alcotest.failf
              "seed %d: tree sets differ between %s (%d trees) and %s (%d trees) for %s\n%s"
              seed
              (Backend.scheme_name reference_scheme)
              (List.length ref_trees) (Backend.scheme_name scheme) (List.length got)
              (Dpc_ndlog.Tuple.to_string out) instance.description)
        worlds)
    (queryable reference)

let prop_losslessness =
  QCheck.Test.make ~name:"theorem 3 on random programs" ~count:60 QCheck.small_nat
    (fun seed ->
      losslessness_on (seed + 1);
      true)

(* ------------------------------------------------------------------ *)
(* Property 2 (Theorem 1 on random programs): two events equal on the
   equivalence keys yield the same multiset of tree equivalence classes. *)

let theorem1_on seed =
  let rng = Dpc_util.Rng.create ~seed in
  let instance = Delp_gen.generate ~rng in
  let keys = Dpc_analysis.Equi_keys.compute instance.delp in
  match instance.events with
  | [] -> ()
  | e1 :: _ ->
      let e2 = Delp_gen.mutate_non_keys ~rng ~keys e1 in
      let w = Delp_gen.build_world instance Backend.S_exspan in
      Delp_gen.run_events w [ e1; e2 ];
      let shapes_of event =
        let evid = Dpc_util.Sha1.digest_string (Dpc_ndlog.Tuple.canonical event) in
        List.filter_map
          (fun (out, m) ->
            if Dpc_util.Sha1.equal m.Dpc_engine.Prov_hook.evid evid then Some out else None)
          (Dpc_engine.Runtime.outputs w.Delp_gen.runtime)
        |> List.sort_uniq Dpc_ndlog.Tuple.compare
        |> List.concat_map (fun out -> (query w ~evid out).trees)
        |> List.map Delp_gen.tree_shape
        |> List.sort compare
      in
      let s1 = shapes_of e1 and s2 = shapes_of e2 in
      if s1 <> s2 then
        Alcotest.failf
          "seed %d: key-equal events have different tree shapes (%d vs %d)\nkeys: %s\ne1=%s\ne2=%s\n%s"
          seed (List.length s1) (List.length s2)
          (String.concat "," (List.map string_of_int (Dpc_analysis.Equi_keys.keys keys)))
          (Dpc_ndlog.Tuple.to_string e1) (Dpc_ndlog.Tuple.to_string e2) instance.description

let prop_theorem1 =
  QCheck.Test.make ~name:"theorem 1 on random programs" ~count:60 QCheck.small_nat
    (fun seed ->
      theorem1_on (seed + 1000);
      true)

(* ------------------------------------------------------------------ *)
(* Property 3: generated programs are valid DELPs with well-formed keys,
   and the whole pipeline never raises. *)

let prop_pipeline_total =
  QCheck.Test.make ~name:"pipeline never raises on random programs" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Dpc_util.Rng.create ~seed:(seed + 2000) in
      let instance = Delp_gen.generate ~rng in
      let keys = Dpc_analysis.Equi_keys.compute instance.delp in
      let key_list = Dpc_analysis.Equi_keys.keys keys in
      let w = Delp_gen.build_world instance Backend.S_advanced in
      Delp_gen.run_events w instance.events;
      List.iter (fun (out, evid) -> ignore (query w ~evid out)) (queryable w);
      key_list <> [] && List.hd key_list = 0)

(* ------------------------------------------------------------------ *)
(* Property 3b: the compiled plan produces exactly the derivations of the
   naive scan join, as a multiset, on random programs and databases —
   events are driven through every rule, feeding derived heads back in so
   later rules of the chain are exercised too. Where the oracle raises,
   the plan raises the same [Eval_error]; and every derivation's recorded
   slow tuples re-derive its head through the same plan. *)

let prop_planned_fire_matches_naive =
  QCheck.Test.make ~name:"indexed fire matches naive fire" ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Dpc_util.Rng.create ~seed:(seed + 7000) in
      let instance = Delp_gen.generate ~rng in
      let db = Dpc_engine.Db.create () in
      List.iter (fun t -> ignore (Dpc_engine.Db.insert db t)) instance.slow_tuples;
      let env = Dpc_engine.Env.empty in
      let plans =
        List.map (fun r -> (r, Dpc_engine.Eval.plan r)) instance.delp.program.rules
      in
      let outcome f = match f () with r -> Ok r | exception Dpc_engine.Eval.Eval_error m -> Error m in
      let norm results =
        List.sort compare
          (List.map
             (fun (head, slow) ->
               (Dpc_ndlog.Tuple.canonical head, List.map Dpc_ndlog.Tuple.canonical slow))
             results)
      in
      let rec drive events depth =
        depth > 4 || events = []
        ||
        let next = ref [] in
        let ok =
          List.for_all
            (fun event ->
              List.for_all
                (fun (rule, plan) ->
                  let diverges what =
                    QCheck.Test.fail_reportf "%s on rule %s, event %s, program:\n%s" what
                      rule.Dpc_ndlog.Ast.name (Dpc_ndlog.Tuple.to_string event)
                      instance.description
                  in
                  let naive = outcome (fun () -> Dpc_engine.Eval.fire ~env ~db ~rule ~event) in
                  let planned =
                    outcome (fun () -> Dpc_engine.Eval.fire_planned ~env ~db ~plan ~event)
                  in
                  match naive, planned with
                  | Error a, Error b -> String.equal a b || diverges "different errors"
                  | Ok _, Error _ | Error _, Ok _ -> diverges "only one join raises"
                  | Ok naive, Ok planned ->
                      next := List.map fst naive @ !next;
                      (norm naive = norm planned || diverges "indexed join diverges")
                      && List.for_all
                           (fun (head, slow) ->
                             match Dpc_engine.Eval.fire_with_slow ~env ~plan ~event ~slow with
                             | Some h when Dpc_ndlog.Tuple.equal h head -> true
                             | Some _ | None -> diverges "re-derivation misses a head"
                             | exception Dpc_engine.Eval.Eval_error m ->
                                 diverges ("re-derivation raises " ^ m))
                           naive)
                plans)
            events
        in
        ok && drive (List.sort_uniq Dpc_ndlog.Tuple.compare !next) (depth + 1)
      in
      drive instance.events 0)

(* ------------------------------------------------------------------ *)
(* Property 4: generated programs round-trip through the parser. *)

let prop_generated_programs_parse =
  QCheck.Test.make ~name:"generated programs re-parse" ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Dpc_util.Rng.create ~seed:(seed + 3000) in
      let instance = Delp_gen.generate ~rng in
      match Dpc_ndlog.Parser.parse_program ~name:"generated" instance.description with
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s\n%s" e instance.description
      | Ok p -> begin
          match Dpc_ndlog.Delp.validate p with
          | Error e ->
              QCheck.Test.fail_reportf "re-validation failed: %s\n%s"
                (Dpc_ndlog.Delp.error_to_string e) instance.description
          | Ok d ->
              Dpc_analysis.Equi_keys.keys (Dpc_analysis.Equi_keys.compute d)
              = Dpc_analysis.Equi_keys.keys (Dpc_analysis.Equi_keys.compute instance.delp)
        end)

(* ------------------------------------------------------------------ *)
(* Property 5: checkpoint/restore on random programs — the restored store
   answers every query identically. *)

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint round-trip on random programs" ~count:30
    QCheck.small_nat (fun seed ->
      let rng = Dpc_util.Rng.create ~seed:(seed + 4000) in
      let instance = Delp_gen.generate ~rng in
      let w = Delp_gen.build_world instance Backend.S_advanced in
      Delp_gen.run_events w instance.events;
      let blob = Backend.checkpoint w.Delp_gen.backend in
      let restored =
        Backend.restore Backend.S_advanced ~delp:instance.delp ~env:Dpc_engine.Env.empty blob
      in
      List.for_all
        (fun (out, evid) ->
          let live =
            List.sort_uniq compare (List.map tree_sig (query w ~evid out).trees)
          in
          let back =
            List.sort_uniq compare
              (List.map tree_sig
                 (Backend.query restored ~cost:Query_cost.free ~routing:w.Delp_gen.routing
                    ~evid out)
                   .trees)
          in
          live = back)
        (queryable w))

(* ------------------------------------------------------------------ *)
(* Property 6: replay on random programs — re-executing the input log
   reproduces exactly the ExSPAN trees of the live run. *)

let prop_replay_matches_live =
  QCheck.Test.make ~name:"replay matches live run on random programs" ~count:30
    QCheck.small_nat (fun seed ->
      let rng = Dpc_util.Rng.create ~seed:(seed + 5000) in
      let instance = Delp_gen.generate ~rng in
      (* Build a live ExSPAN world with a replay logger riding along. *)
      let topo = Dpc_net.Topology.create ~n:instance.nodes in
      let link = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e8 } in
      for a = 0 to instance.nodes - 1 do
        for b = a + 1 to instance.nodes - 1 do
          Dpc_net.Topology.add_link topo a b link
        done
      done;
      let routing = Dpc_net.Routing.compute topo in
      let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
      let backend =
        Backend.make Backend.S_exspan ~delp:instance.delp ~env:Dpc_engine.Env.empty
          ~nodes:instance.nodes
      in
      let replay =
        Replay.create ~delp:instance.delp ~env:Dpc_engine.Env.empty ~nodes:instance.nodes
      in
      let hook = Replay.combine (Backend.hook backend) (Replay.hook replay) in
      let rt =
        Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp:instance.delp ~env:Dpc_engine.Env.empty ~hook ()
      in
      Dpc_engine.Runtime.load_slow rt instance.slow_tuples;
      Replay.record_initial_slow replay instance.slow_tuples;
      List.iter (fun ev -> Dpc_engine.Runtime.inject rt ev) instance.events;
      Dpc_engine.Runtime.run rt;
      let pairs =
        List.map
          (fun (out, (m : Dpc_engine.Prov_hook.meta)) -> (out, m.evid))
          (Dpc_engine.Runtime.outputs rt)
        |> List.sort_uniq compare
      in
      List.for_all
        (fun (out, evid) ->
          let live =
            List.sort_uniq compare
              (List.map tree_sig
                 (Backend.query backend ~cost:Query_cost.free ~routing ~evid out).trees)
          in
          let replayed =
            List.sort_uniq compare
              (List.map tree_sig
                 (Replay.replay_and_query replay ~topology:topo ~evid out).trees)
          in
          live = replayed)
        pairs)

(* ------------------------------------------------------------------ *)
(* A deterministic regression case exercising the generator itself. *)

let test_generator_sanity () =
  let rng = Dpc_util.Rng.create ~seed:99 in
  let instance = Delp_gen.generate ~rng in
  check Alcotest.bool "has rules" true (instance.delp.program.rules <> []);
  check Alcotest.bool "has events" true (instance.events <> []);
  check Alcotest.string "input event relation" "ev" instance.delp.input_event;
  (* All slow tuples belong to slow relations of the program. *)
  List.iter
    (fun t ->
      if not (Dpc_ndlog.Delp.is_slow instance.delp (Dpc_ndlog.Tuple.rel t)) then
        Alcotest.failf "tuple %s is not of a slow relation" (Dpc_ndlog.Tuple.to_string t))
    instance.slow_tuples

let test_mutation_preserves_keys () =
  let rng = Dpc_util.Rng.create ~seed:7 in
  let instance = Delp_gen.generate ~rng in
  let keys = Dpc_analysis.Equi_keys.compute instance.delp in
  List.iter
    (fun ev ->
      let ev' = Delp_gen.mutate_non_keys ~rng ~keys ev in
      check Alcotest.bool "still equivalent" true (Dpc_analysis.Equi_keys.equivalent keys ev ev'))
    instance.events

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dpc_properties"
    [
      ( "generator",
        [
          Alcotest.test_case "sanity" `Quick test_generator_sanity;
          Alcotest.test_case "mutation preserves keys" `Quick test_mutation_preserves_keys;
        ] );
      ( "random programs",
        qsuite
          [
            prop_losslessness;
            prop_theorem1;
            prop_pipeline_total;
            prop_planned_fire_matches_naive;
            prop_generated_programs_parse;
            prop_checkpoint_roundtrip;
            prop_replay_matches_live;
          ] );
    ]
