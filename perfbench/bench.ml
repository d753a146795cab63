(* The repository's benchmark: one process runs one workload for a fixed
   wall-clock budget, checks every output, and prints one JSON line.

     bench.exe --workload ingest|query|churn|ingest-sharded --seed N
               --seconds S --trace 0|1 [--out DIR]

   A run repeats fixed-size rounds of the same seeded world until the
   budget is spent and reports medians over rounds, with every wall time
   normalized for host speed (calib.ml). Each round builds
   the world (set-up), ingests, runs a query phase, then crashes and
   restarts every node a few times. Count metrics are deterministic per
   seed, so every round reports the same ones; only wall times vary.

   With --trace 0 it reports the end-to-end metrics, measured with no
   wrapper installed. With --trace 1 it runs one untraced round first
   (its events/s and digests are the reference for the tracing overhead
   and the traced-digest check), then traced rounds, and reports the
   per-layer metrics; the spans of the first traced round are written to
   DIR/trace-<workload>.tsv, replacing the previous run's. *)

open Dpc_util
open Dpc_core
module R = Dpc_engine.Runtime
module T = Dpc_net.Transport

(* ------------------------------------------------------------------ *)
(* Workloads *)

type spec = {
  name : string;
  scheme : Backend.scheme;
  pairs : int;
  rate : float;  (** packets per second per pair, simulated *)
  duration : float;  (** simulated seconds of injection *)
  domains : int;  (** 1: discrete-event simulator; more: Shard_sim *)
  churn : bool;
      (** faults + Reliable + route refresh + node crashes + an open-loop
          query storm inside the run *)
  populates : bool;  (** the run only fills the store: it counts as set-up *)
  closed_queries : int;  (** closed-loop queries issued after the run *)
  restarts : int;  (** full-cluster crash + restart repeats per round *)
}

let payload_size = 500

let specs =
  [
    {
      name = "ingest";
      scheme = Backend.S_advanced;
      pairs = 120;
      rate = 5.0;
      duration = 20.0;
      domains = 1;
      churn = false;
      populates = false;
      closed_queries = 20_000;
      restarts = 2;
    };
    {
      name = "query";
      scheme = Backend.S_basic;
      pairs = 120;
      rate = 5.0;
      duration = 20.0;
      domains = 1;
      churn = false;
      populates = true;
      closed_queries = 60_000;
      restarts = 2;
    };
    {
      name = "churn";
      scheme = Backend.S_advanced;
      pairs = 200;
      rate = 2.0;
      duration = 10.0;
      domains = 1;
      churn = true;
      populates = false;
      closed_queries = 0;
      restarts = 2;
    };
    {
      name = "ingest-sharded";
      scheme = Backend.S_advanced;
      pairs = 120;
      rate = 5.0;
      duration = 20.0;
      domains = 2;
      churn = false;
      populates = false;
      closed_queries = 20_000;
      restarts = 2;
    };
  ]

(* The topology is part of the workload, like the paper's single
   100-node GT-ITM graph; the seed draws everything sent through it. *)
let topology_seed = 1

(* churn *)
let churn_faults = T.fault_config ~drop:0.02 ~duplicate:0.01 ~delay:0.05 ~delay_max:0.05 ()
let refresh_every = 0.5
let churn_crashes = 12
let storm_rate = 2000.0 (* queries per simulated second *)
let hot_set = 2048 (* half the 4,096-entry cache *)
let sample_every = 50 (* closed loop: every 50th result re-checked with the cache off *)

(* ------------------------------------------------------------------ *)
(* One round *)

let now = Trace.now

type gc_delta = { minor : float; promoted : float; majors : int }

type query_tally = {
  mutable issued : int;
  mutable q_failed : int;
  mutable degraded : int;
  mutable empty : int;
  mutable entries : int;
  mutable rederives : int;
  mutable q_bytes : int;
  mutable walls : float list;  (** seconds per call *)
  mutable models : float list;  (** modeled seconds of complete results, Query_cost.emulation *)
  mutable phase_wall : float;
}

let fresh_tally () =
  {
    issued = 0;
    q_failed = 0;
    degraded = 0;
    empty = 0;
    entries = 0;
    rederives = 0;
    q_bytes = 0;
    walls = [];
    models = [];
    phase_wall = 0.0;
  }

(* The durable log's counters, summed over nodes. *)
type durable_totals = {
  wal_bytes : int;
  checkpoints : int;
  checkpoint_bytes : int;
  delta_cuts : int;
}

let durable_totals durable nodes =
  List.fold_left
    (fun a n ->
      let s = Durable.node_stats durable n in
      {
        wal_bytes = a.wal_bytes + s.wal_bytes;
        checkpoints = a.checkpoints + s.checkpoints;
        checkpoint_bytes = a.checkpoint_bytes + s.checkpoint_bytes;
        delta_cuts = a.delta_cuts + s.delta_cuts;
      })
    { wal_bytes = 0; checkpoints = 0; checkpoint_bytes = 0; delta_cuts = 0 }
    (List.init nodes Fun.id)

type round = {
  topology_s : float;
  program_s : float;
  load_s : float;
  populate_s : float;
  setup_s : float;  (** host-speed normalized, like every [*_norm] below *)
  events : int;
  run_wall : float;
  run_norm : float;
  run_calib_s : float;  (** calibration passes inside the run *)
  q_factor : float;  (** rescales the round's query wall times *)
  q_phase_norm : float;
  restart_norm : float list;  (** ms *)
  pass_s : float;  (** median calibration pass of the ingest run *)
  stats : R.stats;
  prov_bytes : int;
  wire_bytes : int;
  durable : durable_totals;  (** before the restart phase *)
  reliable : Dpc_net.Reliable.stats option;
  equi_hits : int;
  equi_misses : int;
  gc : gc_delta;
  q : query_tally;
  cache : Query_cache.stats;
  digests : string array;
  attempted : int;
  failed : int;
  notes : string list;  (** one line per failed check *)
  trace_ingest : Trace.totals option;  (** spans up to the end of the run *)
  trace_query : Trace.totals option;  (** closed-loop query phase *)
  trace_restart : Trace.totals option;  (** restart phase *)
  trace_final : Trace.totals option;  (** the whole round *)
}

(* Counts the outcome of one query; a degraded result is a failure only
   if no down node explains it. *)
let record_query tally ~wall (r : Query_result.t) =
  tally.issued <- tally.issued + 1;
  tally.walls <- wall :: tally.walls;
  if r.complete then tally.models <- r.latency :: tally.models;
  tally.entries <- tally.entries + r.entries;
  tally.rederives <- tally.rederives + r.rederives;
  tally.q_bytes <- tally.q_bytes + r.bytes;
  if not r.complete then tally.degraded <- tally.degraded + 1;
  if r.trees = [] then tally.empty <- tally.empty + 1;
  if ((not r.complete) && r.downs = 0) || (r.complete && r.trees = []) then
    tally.q_failed <- tally.q_failed + 1

let timed_query ~trace ~index backend ~routing ?up target =
  let go () = Backend.query backend ~cost:Query_cost.emulation ~routing ?up target in
  let t0 = now () in
  let r = if trace then Trace.span ~num:index Trace.Query go else go () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Generated inputs: everything the program receives, drawn from the
   seed before any of it is built. *)

type inputs = {
  ts : Dpc_net.Transit_stub.t;
  routing : Dpc_net.Routing.t;
  nodes : int;
  routes : Dpc_ndlog.Tuple.t list;  (** slow-changing table, loaded at set-up *)
  packets : (float * Dpc_ndlog.Tuple.t) list;  (** (inject delay, packet) *)
  crashes : (int * float * float) list;  (** churn: (node, at, downtime) *)
  refreshes : (float * Dpc_ndlog.Tuple.t) list;  (** churn: (delay, route) *)
}

let generate (spec : spec) ~seed =
  let ts =
    Dpc_net.Transit_stub.generate ~rng:(Rng.create ~seed:topology_seed)
      Dpc_net.Transit_stub.paper_params
  in
  let routing = Dpc_net.Routing.compute ts.topology in
  let nodes = Dpc_net.Topology.size ts.topology in
  let rng = Rng.create ~seed in
  let pairs = Dpc_workload.Pairs.select ~rng ~eligible:ts.stub_nodes ~count:spec.pairs in
  let routes = Dpc_apps.Forwarding.routes_for_pairs routing pairs in
  let filler = String.init payload_size (fun _ -> Char.chr (97 + Rng.int rng 26)) in
  let per_pair = int_of_float (spec.duration *. spec.rate) in
  let packets =
    List.concat
      (List.mapi
         (fun pair (src, dst) ->
           List.init per_pair (fun seq ->
             let tag = Printf.sprintf "p%d-s%d-" pair seq in
             let payload = tag ^ String.sub filler 0 (payload_size - String.length tag) in
             (float_of_int seq /. spec.rate, Dpc_apps.Forwarding.packet ~src ~dst ~payload)))
         pairs)
  in
  let crashes, refreshes =
    if not spec.churn then ([], [])
    else begin
      let crashes =
        Durable.random_schedule ~seed ~nodes ~count:churn_crashes
          ~horizon:(spec.duration *. 0.8) ~min_down:0.2 ~max_down:1.0
      in
      (* §5.5 route refresh on routes held by nodes the schedule never
         crashes: a refresh is a runtime mutation at the route's node. *)
      let crashed = List.map (fun (n, _, _) -> n) crashes in
      let refreshable =
        Array.of_list
          (List.filter (fun r -> not (List.mem (Dpc_ndlog.Tuple.loc r) crashed)) routes)
      in
      let count = int_of_float (spec.duration /. refresh_every) in
      ( crashes,
        List.init count (fun k ->
          ((float_of_int k +. 0.5) *. refresh_every, Rng.pick rng refreshable)) )
    end
  in
  { ts; routing; nodes; routes; packets; crashes; refreshes }

(* ------------------------------------------------------------------ *)
(* The world: the program built over the inputs. *)

type world = {
  raw : T.t;  (** the base transport, below every wrapper: host-speed samples run here *)
  runtime : R.t;
  backend : Backend.t;
  durable : Durable.t;
  t_topology : float;
  t_program : float;
}

(* [faults] and [crashes] select the churn network; the fault-free
   reference builds the same world with both off. *)
let build (spec : spec) (inp : inputs) ~seed ~trace ~faults ~crashes =
  let base =
    if spec.domains = 1 then
      T.of_sim (Dpc_net.Sim.create ~topology:inp.ts.topology ~routing:inp.routing ())
    else
      Dpc_net.Shard_sim.transport
        (Dpc_net.Shard_sim.create ~latency:0.0005 ~seed ~domains:spec.domains ~nodes:inp.nodes ())
  in
  let raw = base in
  let base = if trace then Wrap.transport base else base in
  let net =
    if faults then fst (T.faulty ~config:churn_faults ~rng:(Rng.create ~seed:(seed + 7919)) base)
    else base
  in
  let net, control = T.crashable net in
  let t_topology = now () in
  let delp = Dpc_apps.Forwarding.delp () in
  let env = Dpc_apps.Forwarding.env in
  let backend = Backend.make spec.scheme ~delp ~env ~nodes:inp.nodes in
  let hook = if trace then Wrap.hook (Backend.hook backend) else Backend.hook backend in
  let runtime =
    R.create ~transport:net
      ?reliable:(if spec.churn then Some Dpc_net.Reliable.default_config else None)
      ~delp ~env ~hook ~nodes:(Backend.nodes backend) ()
  in
  let t_program = now () in
  R.load_slow runtime inp.routes;
  let durable = Durable.attach ~backend ~runtime ~control ~config:Durable.default_config () in
  if trace then Wrap.journal runtime durable;
  List.iter (fun (delay, p) -> R.inject runtime ~delay p) inp.packets;
  if crashes then Durable.schedule durable inp.crashes;
  List.iter
    (fun (delay, route) ->
      T.schedule_on (R.transport runtime) ~node:(Dpc_ndlog.Tuple.loc route) ~delay (fun () ->
        ignore (R.delete_slow_runtime runtime route);
        R.insert_slow_runtime runtime route))
    inp.refreshes;
  { raw; runtime; backend; durable; t_topology; t_program }

let digests (w : world) nodes = Array.init nodes (Backend.digest_node w.backend)

(* churn's oracle: the same seed on a perfect network with no crash and
   no storm. Built once per process, outside every timed window. Its
   Reliable counts are the loss-free retransmit baseline. *)
type reference = { ref_digests : string array; ref_reliable : Dpc_net.Reliable.stats option }

let reference_run spec ~seed =
  let inp = generate spec ~seed in
  let w = build spec inp ~seed ~trace:false ~faults:false ~crashes:false in
  R.run w.runtime;
  {
    ref_digests = digests w inp.nodes;
    ref_reliable = Option.map Dpc_net.Reliable.stats (R.reliability w.runtime);
  }

(* ------------------------------------------------------------------ *)
(* One round *)

let run_round (spec : spec) ~seed ~trace ~reference : round =
  if trace then Trace.reset ();
  let failures = ref 0 and attempted = ref 0 and notes = ref [] in
  let check ok what =
    incr attempted;
    if not ok then begin
      incr failures;
      notes := what :: !notes
    end
  in
  let cal_setup = Calib.create () and cal_run = Calib.create () in
  let t_start = now () in
  Calib.sample cal_setup;
  let inp = generate spec ~seed in
  let nodes = inp.nodes in
  let w = build spec inp ~seed ~trace ~faults:spec.churn ~crashes:spec.churn in
  Calib.sample cal_setup;
  let runtime = w.runtime and backend = w.backend and routing = inp.routing in
  let events = List.length inp.packets in
  let tally = fresh_tally () in
  let zipf_rng = Rng.create ~seed:(seed + 104729) in
  let cache = Backend.attach_query_cache backend in
  if spec.churn then begin
    (* Open-loop storm at a fixed simulated rate over the second half of
       the injection window, on a hot set of outputs derived before it
       starts. *)
    let start = spec.duration /. 2.0 in
    let count = int_of_float ((spec.duration -. start) *. storm_rate) in
    let tr = R.transport runtime in
    T.schedule tr ~delay:start (fun () ->
      let derived = Array.of_list (List.map fst (R.outputs runtime)) in
      Rng.shuffle zipf_rng derived;
      let hot = Array.sub derived 0 (min hot_set (Array.length derived)) in
      let zipf = Zipf.create (Array.length hot) in
      let up = Durable.is_up w.durable in
      for i = 0 to count - 1 do
        T.schedule tr ~delay:(float_of_int i /. storm_rate) (fun () ->
          let target = hot.(Zipf.sample zipf zipf_rng) in
          let r, wall = timed_query ~trace ~index:i backend ~routing ~up target in
          tally.phase_wall <- tally.phase_wall +. wall;
          record_query tally ~wall r)
      done)
  end;
  (* one calibration pass per simulated second, on every shard in turn *)
  for k = 1 to int_of_float spec.duration do
    T.schedule_on w.raw ~node:k ~delay:(float_of_int k) (fun () -> Calib.sample cal_run)
  done;
  Calib.sample cal_setup;
  let t_load = now () in
  (* ingest *)
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  Calib.sample cal_run;
  R.run runtime;
  let run_wall = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let trace_ingest = if trace then Some (Trace.merge ()) else None in
  let stats = R.stats runtime in
  check (stats.outputs = events) (Printf.sprintf "outputs %d <> injected %d" stats.outputs events);
  let reliable = Option.map Dpc_net.Reliable.stats (R.reliability runtime) in
  Option.iter
    (fun (s : Dpc_net.Reliable.stats) ->
      check (s.abandoned = 0) (Printf.sprintf "reliable.abandoned_end = %d" s.abandoned))
    reliable;
  let metrics = R.metrics_snapshot runtime in
  let durable_sum = durable_totals w.durable nodes in
  let prov_bytes = Dpc_workload.Measure.total_provenance_bytes backend in
  let wire_bytes = T.total_bytes (R.transport runtime) in
  let final = digests w nodes in
  Option.iter
    (fun r ->
      check (final = r.ref_digests) "final digests differ from the fault-free, crash-free run")
    reference;
  (* closed-loop query phase: one client, Zipf(1.0) over every output *)
  let cal_query = Calib.create () in
  let trace_query =
    if spec.closed_queries = 0 then None
    else begin
      let targets = Array.of_list (List.map fst (R.outputs runtime)) in
      Rng.shuffle zipf_rng targets;
      let zipf = Zipf.create (Array.length targets) in
      let samples = ref [] in
      let t0 = now () in
      for i = 0 to spec.closed_queries - 1 do
        if i mod 2000 = 0 then Calib.sample cal_query;
        let target = targets.(Zipf.sample zipf zipf_rng) in
        let r, wall = timed_query ~trace ~index:i backend ~routing target in
        record_query tally ~wall r;
        if i mod sample_every = 0 then samples := (target, r.trees) :: !samples
      done;
      Calib.sample cal_query;
      tally.phase_wall <- now () -. t0;
      let traced = if trace then Some (Trace.merge ()) else None in
      (* The cache must be invisible: sampled results, recomputed
         without it, are tree-identical. *)
      Backend.set_query_cache backend None;
      List.iter
        (fun (target, trees) ->
          let r = Backend.query backend ~cost:Query_cost.emulation ~routing target in
          check
            (List.length r.trees = List.length trees && List.for_all2 Prov_tree.equal r.trees trees)
            "a cached query result differs from the uncached one")
        !samples;
      Backend.set_query_cache backend (Some cache);
      traced
    end
  in
  attempted := !attempted + tally.issued;
  failures := !failures + tally.q_failed;
  if tally.q_failed > 0 then notes := Printf.sprintf "%d queries failed" tally.q_failed :: !notes;
  let cache_stats = Query_cache.stats cache in
  (* restart phase: crash every node, restart every node, compare digests *)
  let cal_restart = Calib.create () in
  let restart_ms =
    List.init spec.restarts (fun _ ->
      Calib.sample cal_restart;
      for n = 0 to nodes - 1 do
        Durable.crash w.durable n
      done;
      let t0 = now () in
      for n = 0 to nodes - 1 do
        if trace then Trace.span Trace.Restart (fun () -> Durable.restart w.durable n)
        else Durable.restart w.durable n
      done;
      let ms = (now () -. t0) *. 1000.0 in
      Calib.sample cal_restart;
      check (digests w nodes = final) "a recovered node's digest differs from its pre-crash digest";
      ms)
  in
  let trace_restart = if trace then Some (Trace.merge ()) else None in
  let sub a b = match (a, b) with Some a, Some b -> Some (Trace.diff a b) | _ -> None in
  let run_norm = Calib.scale cal_run run_wall in
  let q_factor, q_phase_norm =
    if spec.closed_queries = 0 then (Calib.factor cal_run, tally.phase_wall *. Calib.factor cal_run)
    else (Calib.factor cal_query, Calib.scale cal_query tally.phase_wall)
  in
  {
    topology_s = w.t_topology -. t_start;
    program_s = w.t_program -. w.t_topology;
    load_s = t_load -. w.t_program;
    populate_s = (if spec.populates then run_wall else 0.0);
    setup_s = Calib.scale cal_setup (t_load -. t_start) +. if spec.populates then run_norm else 0.0;
    events;
    run_wall;
    run_norm;
    run_calib_s = cal_run.spent;
    q_factor;
    q_phase_norm;
    restart_norm = List.map (fun ms -> ms *. Calib.factor cal_restart) restart_ms;
    pass_s = Calib.reference_s /. Calib.factor cal_run;
    stats;
    prov_bytes;
    wire_bytes;
    durable = durable_sum;
    reliable;
    equi_hits = Metrics.counter metrics "store.equi_hits";
    equi_misses = Metrics.counter metrics "store.equi_misses";
    gc =
      {
        minor = gc1.minor_words -. gc0.minor_words;
        promoted = gc1.promoted_words -. gc0.promoted_words;
        majors = gc1.major_collections - gc0.major_collections;
      };
    q = tally;
    cache = cache_stats;
    digests = final;
    attempted = !attempted + events;
    failed = !failures;
    notes = List.rev !notes;
    trace_ingest;
    trace_query = sub trace_query trace_ingest;
    trace_restart =
      (match trace_query with
      | Some _ -> sub trace_restart trace_query
      | None -> sub trace_restart trace_ingest);
    trace_final = trace_restart;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let median xs = Stats.median xs
let pct xs p = Stats.percentile xs p
let per_event (r : round) x = float_of_int x /. float_of_int r.events
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Deterministic outcome of a round: equal on every round of one seed. *)
let fingerprint (r : round) =
  ( (r.stats, r.prov_bytes, r.wire_bytes, r.durable, r.reliable),
    (r.equi_hits, r.equi_misses, r.digests, r.cache, r.q.models) )

(* Every wall-clock figure is host-speed normalized (see calib.ml): a
   round's own value (a rate, or a median or percentile over the round's
   samples), then the median over rounds. *)
let end_to_end (rounds : round list) ~heap_peak_mb ~attempted ~failed =
  let first = List.hd rounds in
  let med f = median (List.map f rounds) in
  let d = first.durable in
  [
    ("setup_s", med (fun r -> r.setup_s), "s");
    ("ingest_events_per_s", med (fun r -> float_of_int r.events /. r.run_norm), "1/s");
    ("prov_bytes_per_event", per_event first first.prov_bytes, "B");
    ("durable_bytes_per_event", per_event first (d.wal_bytes + d.checkpoint_bytes), "B");
    ("wire_bytes_per_event", per_event first first.wire_bytes, "B");
    ("query_p50_us", med (fun r -> pct r.q.walls 50.0 *. r.q_factor) *. 1e6, "us");
    ("query_p99_us", med (fun r -> pct r.q.walls 99.0 *. r.q_factor) *. 1e6, "us");
    ("queries_per_s", med (fun r -> float_of_int r.q.issued /. r.q_phase_norm), "1/s");
    ("query_model_p99_ms", pct first.q.models 99.0 *. 1000.0, "ms");
    ("recovery_ms_p50", med (fun r -> median r.restart_norm), "ms");
    ("heap_peak_mb", heap_peak_mb, "MB");
    ("ok_ratio", 1.0 -. (float_of_int failed /. float_of_int attempted), "ratio");
  ]

let per_layer (spec : spec) ~reference ~(untraced : round) (traced : round list) =
  let first = List.hd traced in
  let med f = median (List.map f traced) in
  let tot f r = match f r with Some t -> t | None -> failwith "per_layer: untraced round" in
  let ingest = tot (fun r -> r.trace_ingest) and restart = tot (fun r -> r.trace_restart) in
  let final = tot (fun r -> r.trace_final) in
  let sum_traced f = float_of_int (List.fold_left (fun s r -> s + f (final r)) 0 traced) in
  let query_busy r =
    Trace.busy (ingest r) Trace.Query
    +. match r.trace_query with Some t -> Trace.busy t Trace.Query | None -> 0.0
  in
  let rel f = match first.reliable with Some s -> f s | None -> 0 in
  let d = first.durable in
  let q = first.q in
  let per_query x = ratio x q.issued in
  let c = first.cache in
  let eps r = float_of_int r.events /. r.run_norm in
  let store l =
    let n = Trace.name l in
    [
      (n ^ ".calls", float_of_int (Trace.calls (ingest first) l), "count");
      (n ^ ".busy_s", med (fun r -> Trace.busy (ingest r) l), "s");
    ]
  in
  [
    ("setup.topology_s", med (fun r -> r.topology_s), "s");
    ("setup.program_s", med (fun r -> r.program_s), "s");
    ("setup.load_s", med (fun r -> r.load_s), "s");
    ("setup.populate_s", med (fun r -> r.populate_s), "s");
    ("net.sends", float_of_int (ingest first).t_sends, "count");
    ("net.broadcasts", float_of_int (ingest first).t_broadcasts, "count");
    ("net.bytes", float_of_int first.wire_bytes, "B");
    ( "net.self_s",
      med (fun r ->
        (float_of_int spec.domains *. r.run_wall)
        -. Trace.busy (ingest r) Trace.Deliver -. r.run_calib_s),
      "s" );
    ("reliable.data_msgs", float_of_int (rel (fun s -> s.data_msgs)), "count");
    ("reliable.retransmits", float_of_int (rel (fun s -> s.retransmits)), "count");
    ( "reliable.retransmit_ratio",
      ratio (rel (fun s -> s.retransmits)) (rel (fun s -> s.data_msgs)),
      "ratio" );
    ("reliable.ack_bytes", float_of_int (rel (fun s -> s.ack_bytes_total)), "B");
    ("reliable.dup_dropped", float_of_int (rel (fun s -> s.dup_dropped)), "count");
    ("reliable.held", float_of_int (rel (fun s -> s.held)), "count");
    ("reliable.abandoned_end", float_of_int (rel (fun s -> s.abandoned)), "count");
    ( "reliable.retransmit_ratio_lossfree",
      (match reference with
      | Some { ref_reliable = Some s; _ } -> ratio s.retransmits s.data_msgs
      | _ -> 0.0),
      "ratio" );
    ("engine.self_s", med (fun r -> Trace.self (ingest r) Trace.Deliver), "s");
    ("engine.fired_per_event", per_event first first.stats.fired, "count");
    ("engine.dead_ends", float_of_int first.stats.dead_ends, "count");
  ]
  @ List.concat_map store [ Trace.On_input; Trace.On_fire; Trace.On_output; Trace.On_slow_update ]
  @ [
      ("store.bytes", float_of_int first.prov_bytes, "B");
      ( "store.equi_hit_ratio",
        ratio first.equi_hits (first.equi_hits + first.equi_misses),
        "ratio" );
      ("durable.journal.calls", float_of_int (Trace.calls (ingest first) Trace.Journal), "count");
      ("durable.journal.busy_s", med (fun r -> Trace.busy (ingest r) Trace.Journal), "s");
      ("durable.wal_bytes", float_of_int d.wal_bytes, "B");
      ("durable.checkpoints", float_of_int d.checkpoints, "count");
      ("durable.delta_cuts", float_of_int d.delta_cuts, "count");
      ("durable.checkpoint_bytes", float_of_int d.checkpoint_bytes, "B");
      ("durable.restart.busy_s", med (fun r -> Trace.busy (restart r) Trace.Restart), "s");
      ("query.busy_s", med query_busy, "s");
      ("query.entries_per_query", per_query q.entries, "count");
      ("query.rederives_per_query", per_query q.rederives, "count");
      ("query.bytes_per_query", per_query q.q_bytes, "B");
      ("query.cache.hit_ratio", ratio c.hits (c.hits + c.misses), "ratio");
      ("query.cache.evictions", float_of_int c.evictions, "count");
      ("query.cache.invalidations", float_of_int c.invalidations, "count");
      ("query.degraded", float_of_int q.degraded, "count");
      ("query.empty", float_of_int q.empty, "count");
      ("gc.minor_words_per_event", untraced.gc.minor /. float_of_int untraced.events, "words");
      ( "gc.promoted_words_per_event",
        untraced.gc.promoted /. float_of_int untraced.events,
        "words" );
      ("gc.major_collections", float_of_int untraced.gc.majors, "count");
      ("trace.untraced_events_per_s", eps untraced, "1/s");
      ("trace.traced_events_per_s", med eps, "1/s");
      ("trace.overhead_pct", ((eps untraced /. med eps) -. 1.0) *. 100.0, "%");
      ("host.pass_us", med (fun r -> r.pass_s) *. 1e6, "us");
      ("trace.spans", sum_traced (fun t -> t.t_spans + t.t_dropped), "count");
      ("trace.spans_dropped", sum_traced (fun t -> t.t_dropped), "count");
    ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " ingest | query | churn | ingest-sharded");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " wall-clock budget for the rounds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--out", Arg.Set_string out, " directory for the span file of a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "bench: --trace takes 0 or 1";
    exit 2
  end;
  let seed = !seed and traced = !trace = 1 in
  let reference = if spec.churn then Some (reference_run spec ~seed) else None in
  let deadline = now () +. !seconds in
  let round ~trace =
    let t0 = now () in
    let r = run_round spec ~seed ~trace ~reference in
    List.iter (fun n -> Printf.eprintf "bench: %s: check failed: %s\n%!" spec.name n) r.notes;
    Gc.compact ();
    Printf.eprintf
      "bench: %s round (trace %b): run %.3fs (%.3fs normalized, calibration pass %.0fus), %d \
       events, %d queries, round %.3fs\n%!"
      spec.name trace r.run_wall r.run_norm (r.pass_s *. 1e6) r.events r.q.issued (now () -. t0);
    r
  in
  let first = round ~trace:false in
  (* The first round's peak: a fresh process runs the same collections
     every run of a seed (on one domain, with no restart inside the run);
     later rounds only add noise. *)
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let rec more acc ~trace =
    if now () >= deadline && acc <> [] then List.rev acc
    else begin
      let origin = now () in
      let r = round ~trace in
      if trace && acc = [] then begin
        (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Trace.write ~origin
          (Filename.concat !out (Printf.sprintf "trace-%s.tsv" spec.name))
      end;
      more (r :: acc) ~trace
    end
  in
  let rounds =
    if traced then more [] ~trace:true
    else if now () >= deadline then [ first ]
    else first :: more [] ~trace:false
  in
  let all = first :: (if traced then rounds else List.tl rounds) in
  (* Every round of one seed must reproduce the first one exactly. *)
  let consistent = List.filter (fun r -> fingerprint r <> fingerprint first) all = [] in
  if not consistent then prerr_endline "bench: check failed: rounds of one seed differ";
  let attempted = List.fold_left (fun s r -> s + r.attempted) 1 all in
  let failed = List.fold_left (fun s r -> s + r.failed) (if consistent then 0 else 1) all in
  let metrics =
    if traced then per_layer spec ~reference ~untraced:first rounds
    else end_to_end rounds ~heap_peak_mb ~attempted ~failed
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
