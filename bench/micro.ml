(* Bechamel micro-benchmarks for the hot operations of the maintenance
   pipeline: hashing, equivalence-key extraction, rule firing, and
   per-scheme provenance recording. *)

open Bechamel
open Toolkit

let packet = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:(String.make 500 'x')

let sha1_64 =
  let input = String.make 64 'a' in
  Test.make ~name:"sha1/64B" (Staged.stage (fun () -> Dpc_util.Sha1.digest_string input))

let sha1_1k =
  let input = String.make 1024 'a' in
  Test.make ~name:"sha1/1KB" (Staged.stage (fun () -> Dpc_util.Sha1.digest_string input))

let tuple_canonical =
  Test.make ~name:"tuple/canonical+hash"
    (Staged.stage (fun () -> Dpc_util.Sha1.digest_string (Dpc_ndlog.Tuple.canonical packet)))

let equi_key_hash =
  let keys = Dpc_analysis.Equi_keys.compute (Dpc_apps.Forwarding.delp ()) in
  Test.make ~name:"equi_keys/key_hash"
    (Staged.stage (fun () -> Dpc_analysis.Equi_keys.key_hash keys packet))

let static_analysis =
  let delp = Dpc_apps.Dns.delp () in
  Test.make ~name:"analysis/GetEquiKeys(dns)"
    (Staged.stage (fun () -> Dpc_analysis.Equi_keys.compute delp))

let forwarding_r1 = Dpc_engine.Eval.plan (List.hd (Dpc_apps.Forwarding.delp ()).program.rules)

let rule_fire =
  let db = Dpc_engine.Db.create () in
  List.iter
    (fun d -> ignore (Dpc_engine.Db.insert db (Dpc_apps.Forwarding.route ~at:0 ~dst:d ~next:1)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Test.make ~name:"eval/fire_planned(join of 8 routes)"
    (Staged.stage (fun () ->
       Dpc_engine.Eval.fire_planned ~env:Dpc_apps.Forwarding.env ~db ~plan:forwarding_r1
         ~event:packet))

(* Query-time re-derivation of one hop from its recorded route. *)
let rule_rederive =
  let slow = [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1 ] in
  Test.make ~name:"eval/fire_with_slow"
    (Staged.stage (fun () ->
       Dpc_engine.Eval.fire_with_slow ~env:Dpc_apps.Forwarding.env ~plan:forwarding_r1
         ~event:packet ~slow))

(* End-to-end recording cost: one packet through the 3-node example under
   each scheme, amortized. *)
let record_scheme scheme =
  Test.make ~name:(Printf.sprintf "record/%s" (Dpc_core.Backend.scheme_name scheme))
    (Staged.stage
       (let topo = Dpc_net.Topology.create ~n:3 in
        let l = { Dpc_net.Topology.latency = 0.001; bandwidth = 1e9 } in
        Dpc_net.Topology.add_link topo 0 1 l;
        Dpc_net.Topology.add_link topo 1 2 l;
        let routing = Dpc_net.Routing.compute topo in
        let delp = Dpc_apps.Forwarding.delp () in
        let backend =
          Dpc_core.Backend.make scheme ~delp ~env:Dpc_apps.Forwarding.env ~nodes:3
        in
        let sim = Dpc_net.Sim.create ~topology:topo ~routing () in
        let runtime =
          Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.of_sim sim) ~delp
            ~env:Dpc_apps.Forwarding.env ~hook:(Dpc_core.Backend.hook backend)
            ~nodes:(Dpc_core.Backend.nodes backend) ()
        in
        Dpc_engine.Runtime.load_slow runtime
          [ Dpc_apps.Forwarding.route ~at:0 ~dst:2 ~next:1;
            Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
        let counter = ref 0 in
        fun () ->
          incr counter;
          Dpc_engine.Runtime.inject runtime
            (Dpc_apps.Forwarding.packet ~src:0 ~dst:2
               ~payload:(Printf.sprintf "p%d" !counter));
          Dpc_engine.Runtime.run runtime))

let tests =
  Test.make_grouped ~name:"dpc"
    [
      sha1_64;
      sha1_1k;
      tuple_canonical;
      equi_key_hash;
      static_analysis;
      rule_fire;
      rule_rederive;
      record_scheme Dpc_core.Backend.S_exspan;
      record_scheme Dpc_core.Backend.S_basic;
      record_scheme Dpc_core.Backend.S_advanced;
    ]

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "\n=== Micro-benchmarks (monotonic clock, ns/run) ===";
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let estimate =
          match Analyze.OLS.estimates result with
          | Some [ e ] -> Printf.sprintf "%.1f" e
          | Some _ | None -> "n/a"
        in
        [ name; estimate ] :: acc)
      results []
    |> List.sort compare
  in
  Dpc_util.Table_fmt.print ~header:[ "benchmark"; "ns/run" ] ~rows
