open Dpc_ndlog
open Dpc_util

type node_state = {
  prov : Rows.prov_row Store.table;  (* keyed by vid *)
  rule_exec : Rows.rule_exec_row Store.table;  (* keyed by rid *)
  tuples : Store.side;  (* vid -> materialized tuple *)
}

type t = (unit, node_state) Store.t

let prov_row = Store.prov_row ~with_evid:false
let exec_row = Store.exec_row ~with_next:false
let prov st = st.prov
let rule_exec st = st.rule_exec
let tuples st = st.tuples

(* One streamed SHA-1 over "+"-separated parts, vids as their raw 20
   bytes: same injectivity as the old hex-rendered digest_concat (parts
   after the variable-length rule name and node are fixed-width), no hex
   strings and no intermediate list on the per-firing hot path. *)
let rid_of ~rule_name ~node ~vids =
  Sha1.digest_iter (fun f ->
    f rule_name;
    f "+";
    f (string_of_int node);
    List.iter
      (fun vid ->
        f "+";
        f (Sha1.to_raw vid))
      vids)

(* The prov row of a derived tuple is written by the RECEIVER, from the
   (RLoc, RID) reference the tuple ships with — not by the sender reaching
   across into the receiver's tables. Same rows as the sender-writes
   formulation (§4 stores them at the derived tuple's location either
   way), but every write now happens at the node processing the arrival,
   which is what makes a node's store a function of its own journal. The
   one observable difference: an event no rule fires on (a dead end) no
   longer gets a row — it contributes to no output's provenance. *)
let record_arrival t ~node event (meta : Dpc_engine.Prov_hook.meta) =
  match meta.prev with
  | None -> ()
  | Some rref ->
      Store.add t ~node prov
        { Rows.loc = node; vid = Rows.vid_of event; rid = Some rref; evid = None };
      Store.put t ~node tuples ~key:(Rows.vid_of event) event

let on_fire t ~node ~(rule : Ast.rule) ~event ~slow (meta : Dpc_engine.Prov_hook.meta) =
  record_arrival t ~node event meta;
  let event_vid = Rows.vid_of event in
  let slow_vids = List.map Rows.vid_of slow in
  let vids = slow_vids @ [ event_vid ] in
  let rid = rid_of ~rule_name:rule.name ~node ~vids in
  Store.add t ~node rule_exec { Rows.rloc = node; rid; rule = rule.name; vids; next = None };
  (* Base rows for the slow tuples (their location is the executing node). *)
  List.iter2
    (fun tuple vid ->
      Store.add t ~node prov { Rows.loc = node; vid; rid = None; evid = None };
      Store.put t ~node tuples ~key:vid tuple)
    slow slow_vids;
  (* The input event is a base tuple; intermediate events get their prov
     row from [record_arrival]. *)
  if meta.prev = None then begin
    Store.add t ~node prov { Rows.loc = node; vid = event_vid; rid = None; evid = None };
    Store.put t ~node tuples ~key:event_vid event
  end;
  { meta with prev = Some (node, rid) }

let hook t =
  {
    Dpc_engine.Prov_hook.name = "exspan";
    on_input =
      (fun ~node event ->
        let meta = Dpc_engine.Prov_hook.initial_meta event in
        Store.put t ~node tuples ~key:(Rows.vid_of event) event;
        meta);
    on_fire =
      (fun ~node ~rule ~event ~slow ~head:_ meta -> on_fire t ~node ~rule ~event ~slow meta);
    on_output = (fun ~node event meta -> record_arrival t ~node event meta);
    (* §5.5 sig delivery: the slow world changed; drop this node's
       memoized reconstructions. *)
    on_slow_update = (fun ~node ~op:_ _ -> Store.invalidate_cache t node);
    (* ExSPAN ships the (RID, RLoc) reference so the receiver can store the
       prov row of the derived tuple. *)
    meta_bytes = (fun _ -> Rows.ref_bytes);
  }

let max_derivations = 64

(* Reconstruct every derivation rooted at rule execution (rloc, rid), which
   derived [output]. An intermediate event tuple can itself have several
   derivations (several prov rows with distinct rule references — e.g. two
   equal-cost routes producing the identical tuple), so the result is a
   list, capped at [max_derivations]. [at] is the node the query currently
   sits on. *)
let rec fetch_trees t acct ~at ~output (rloc, rid) =
  Store.charge_hop acct ~src:at ~dst:rloc;
  Store.require_up acct rloc;
  let st = Store.state t rloc in
  let exec =
    match Rows.Table.find st.rule_exec.rows (Rows.key rid) with
    | [ row ] -> row
    | [] ->
        raise
          (Store.Broken (Printf.sprintf "missing ruleExec %s at node %d" (Rows.hex rid) rloc))
    | _ :: _ :: _ -> raise (Store.Broken "duplicate ruleExec rid")
  in
  Store.charge_entries acct 1;
  Store.charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:false exec);
  ignore (Store.plan_named t exec.rule);
  (* vids = slow tuples followed by the event. *)
  let slow_vids, event_vid =
    match List.rev exec.vids with
    | ev :: rest -> (List.rev rest, ev)
    | [] -> raise (Store.Broken "ruleExec with no body vids")
  in
  let resolve_body vid =
    (* Each body tuple's prov row lives at the executing node. *)
    let rows = Rows.Table.find st.prov.rows (Rows.key vid) in
    Store.charge_entries acct (max 1 (List.length rows));
    (rows, Store.lookup acct st.tuples.tuples vid)
  in
  let slow = List.map (fun vid -> snd (resolve_body vid)) slow_vids in
  let event_rows, event_tuple = resolve_body event_vid in
  let derived_refs = List.filter_map (fun (r : Rows.prov_row) -> r.rid) event_rows in
  let triggers =
    if derived_refs = [] then [ Prov_tree.Event event_tuple ]
    else
      List.concat_map
        (fun rref ->
          List.map
            (fun sub -> Prov_tree.Derived sub)
            (fetch_trees t acct ~at:rloc ~output:event_tuple rref))
        derived_refs
  in
  List.filteri (fun i _ -> i < max_derivations) triggers
  |> List.map (fun trigger -> { Prov_tree.rule = exec.rule; output; trigger; slow })

let walk t acct ~output ~evid:_ rref =
  match fetch_trees t acct ~at:(Tuple.loc output) ~output rref with
  | trees -> trees
  | exception Store.Broken _ -> []

let dump t =
  let n = Array.length (Store.nodes t) in
  let rows table node = Store.table_rows (table (Store.state t node)) in
  let ph, pr = Rows.dump_prov ~with_evid:false (rows prov) n in
  let rh, rr = Rows.dump_rule_exec ~with_next:false (rows rule_exec) n in
  [ ("prov", ph, pr); ("ruleExec", rh, rr) ]

let policy =
  {
    Store.slug = "exspan";
    title = "ExSPAN";
    article = "an";
    fresh =
      (fun () ->
        { prov = Store.table prov_row; rule_exec = Store.table exec_row; tuples = Store.side () });
    parts = (fun st -> [ Store.Table st.prov; Table st.rule_exec; Side st.tuples ]);
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
