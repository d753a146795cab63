open Dpc_ndlog

type node_state = {
  prov : Rows.prov_row Store.table;  (* keyed by vid; outputs only *)
  rule_exec : Rows.rule_exec_row Store.table;  (* keyed by rid *)
  slow_tuples : Store.side;  (* vid -> slow tuple, at the executing node *)
  events : Store.side;  (* evid -> input event, at the ingress node *)
}

type t = (unit, node_state) Store.t

let prov_row = Store.prov_row ~with_evid:false
let exec_row = Store.exec_row ~with_next:true
let prov st = st.prov
let rule_exec st = st.rule_exec
let slow_tuples st = st.slow_tuples
let events st = st.events

let on_fire t ~node ~(rule : Ast.rule) ~event ~slow (meta : Dpc_engine.Prov_hook.meta) =
  let event_vid = Rows.vid_of event in
  let slow_vids = List.map Rows.vid_of slow in
  (* Same rid as ExSPAN (Table 2 reuses Table 1's rids). *)
  let rid = Store_exspan.rid_of ~rule_name:rule.name ~node ~vids:(slow_vids @ [ event_vid ]) in
  (* The input event's vid is kept in the leaf row (Table 2's rid1 row);
     intermediate event vids are dropped — that is the optimization. *)
  let vids = if meta.prev = None then slow_vids @ [ event_vid ] else slow_vids in
  Store.add t ~node rule_exec { Rows.rloc = node; rid; rule = rule.name; vids; next = meta.prev };
  List.iter2 (fun tuple vid -> Store.put t ~node slow_tuples ~key:vid tuple) slow slow_vids;
  { meta with prev = Some (node, rid) }

let on_output t ~node output (meta : Dpc_engine.Prov_hook.meta) =
  Store.add t ~node prov { Rows.loc = node; vid = Rows.vid_of output; rid = meta.prev; evid = None }

let hook t =
  {
    Dpc_engine.Prov_hook.name = "basic";
    on_input =
      (fun ~node event ->
        let meta = Dpc_engine.Prov_hook.initial_meta event in
        Store.put t ~node events ~key:meta.evid event;
        meta);
    on_fire =
      (fun ~node ~rule ~event ~slow ~head:_ meta -> on_fire t ~node ~rule ~event ~slow meta);
    on_output = (fun ~node output meta -> on_output t ~node output meta);
    (* Basic keeps no equivalence state to wipe, but a §5.5 sig still
       means the slow world changed under previously served trees: drop
       this node's memoized reconstructions. *)
    on_slow_update = (fun ~node ~op:_ _ -> Store.invalidate_cache t node);
    (* Ships the (NLoc, NRID) back-pointer. *)
    meta_bytes = (fun _ -> Rows.ref_bytes);
  }

(* The chain walk (§4's two-step query): back-pointers root-to-leaf, then
   re-derivation from the input event the leaf row's last vid names. *)
let chains =
  {
    Store.env = Store.env;
    find_plan = Store.plan_named;
    chain_rows = (fun t node -> Store.Chained (Store.state t node).rule_exec.rows);
    slow = (fun t node -> (Store.state t node).slow_tuples.tuples);
    leaf =
      (fun t acct ~evid:_ (leaf : Rows.rule_exec_row) ->
        (* Leaf row: vids = slow tuples then the input event. *)
        match List.rev leaf.vids with
        | ev :: rest ->
            (Store.lookup acct (Store.state t leaf.rloc).events.tuples ev, List.rev rest)
        | [] -> raise (Store.Broken "leaf ruleExec with no vids"));
  }

let walk t acct ~output ~evid rref = Store.chain_trees acct chains t ~output ~evid rref

let dump t =
  let n = Array.length (Store.nodes t) in
  let rows table node = Store.table_rows (table (Store.state t node)) in
  let ph, pr = Rows.dump_prov ~with_evid:false (rows prov) n in
  let rh, rr = Rows.dump_rule_exec ~with_next:true (rows rule_exec) n in
  [ ("prov", ph, pr); ("ruleExec", rh, rr) ]

(* Every Basic write is node-local (the back-pointer travels in the meta;
   nobody writes across nodes), so one node's parts are exactly what it
   owns. *)
let policy =
  {
    Store.slug = "basic";
    title = "Basic";
    article = "a";
    fresh =
      (fun () ->
        { prov = Store.table prov_row; rule_exec = Store.table exec_row;
          slow_tuples = Store.side (); events = Store.side () });
    parts =
      (fun st -> [ Store.Table st.prov; Table st.rule_exec; Side st.slow_tuples; Side st.events ]);
    prov;
    layout = None;
    trailer = Store.no_trailer;
    hook;
    walk;
    dump;
  }

let create ~delp ~env ~nodes = Store.create policy ~conf:() ~delp ~env ~nodes

let restore ~delp ~env blob =
  Store.restore policy blob ~create:(fun ~layout:_ ~nodes -> create ~delp ~env ~nodes)
