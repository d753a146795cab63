open Dpc_ndlog

type entry = E_event of Tuple.t | E_insert of Tuple.t | E_delete of Tuple.t

type t = {
  delp : Delp.t;
  env : Dpc_engine.Env.t;
  nodes : int;
  mutable log_rev : entry list;
  mutable initial_slow : Tuple.t list;
}

let create ~delp ~env ~nodes = { delp; env; nodes; log_rev = []; initial_slow = [] }

let record t entry = t.log_rev <- entry :: t.log_rev

let hook t =
  {
    Dpc_engine.Prov_hook.null with
    name = "replay-log";
    on_input =
      (fun ~node:_ event ->
        record t (E_event event);
        Dpc_engine.Prov_hook.initial_meta event);
    on_slow_update =
      (fun ~node ~op tuple ->
        (* The sig broadcast reaches every node; log the update once, when
           it arrives at the tuple's own location. *)
        if node = Tuple.loc tuple then
          record t
            (match op with
            | Dpc_engine.Prov_hook.Slow_insert -> E_insert tuple
            | Dpc_engine.Prov_hook.Slow_delete -> E_delete tuple));
  }

let combine (a : Dpc_engine.Prov_hook.t) (b : Dpc_engine.Prov_hook.t) =
  {
    Dpc_engine.Prov_hook.name = a.name ^ "+" ^ b.name;
    on_input =
      (fun ~node event ->
        ignore (b.on_input ~node event);
        a.on_input ~node event);
    on_fire =
      (fun ~node ~rule ~event ~slow ~head meta ->
        ignore (b.on_fire ~node ~rule ~event ~slow ~head meta);
        a.on_fire ~node ~rule ~event ~slow ~head meta);
    on_output =
      (fun ~node output meta ->
        b.on_output ~node output meta;
        a.on_output ~node output meta);
    on_slow_update =
      (fun ~node ~op tuple ->
        b.on_slow_update ~node ~op tuple;
        a.on_slow_update ~node ~op tuple);
    meta_bytes = (fun meta -> a.meta_bytes meta + b.meta_bytes meta);
  }

let record_initial_slow t tuples = t.initial_slow <- t.initial_slow @ tuples

let log_length t = List.length t.log_rev

let storage_bytes t =
  let w = Dpc_util.Serialize.writer () in
  List.iter (fun tuple -> Tuple.serialize w tuple) t.initial_slow;
  List.iter
    (fun entry ->
      match entry with
      | E_event tuple | E_insert tuple | E_delete tuple ->
          Dpc_util.Serialize.write_varint w
            (match entry with E_event _ -> 0 | E_insert _ -> 1 | E_delete _ -> 2);
          Tuple.serialize w tuple)
    t.log_rev;
  Dpc_util.Serialize.size w

(* Seconds charged per replayed log entry (the rule executions it causes
   are charged through the engine's determinism, not modeled further). *)
let replay_cost_per_entry = 0.0005

let replay_and_query t ~topology ?evid target =
  let routing = Dpc_net.Routing.compute topology in
  let sim = Dpc_net.Sim.create ~topology ~routing () in
  let transport = Dpc_net.Transport.of_sim sim in
  let store = Store_exspan.create ~delp:t.delp ~env:t.env ~nodes:t.nodes in
  let runtime =
    Dpc_engine.Runtime.create ~transport ~delp:t.delp ~env:t.env
      ~hook:(Store.hook store) ~nodes:(Store.nodes store) ()
  in
  Dpc_engine.Runtime.load_slow runtime t.initial_slow;
  (* Replay in arrival order, quiescing between entries so each update is
     fully processed before the next input. *)
  List.iter
    (fun entry ->
      (match entry with
      | E_event event -> Dpc_engine.Runtime.inject runtime event
      | E_insert tuple -> Dpc_engine.Runtime.insert_slow_runtime runtime tuple
      | E_delete tuple -> ignore (Dpc_engine.Runtime.delete_slow_runtime runtime tuple));
      Dpc_engine.Runtime.run runtime)
    (List.rev t.log_rev);
  let result = Store.query store ~cost:Query_cost.emulation ~routing ?evid target in
  {
    result with
    Query_result.latency =
      result.Query_result.latency
      +. (float_of_int (log_length t) *. replay_cost_per_entry);
  }
