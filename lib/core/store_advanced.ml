open Dpc_ndlog
open Dpc_util

(* The equivalence state of one ingress node. Unlike the row tables it
   mutates: [htequi] can be wiped wholesale by a slow update ([wiped]
   records that; [new_keys] then holds only post-wipe insertions), and an
   [hmap] entry's ref list can grow ([grown] keys the touched classes; a
   delta ships their CURRENT full ref lists, which replay replace-wise like
   a node restore). *)
type equi = {
  htequi : (string, unit) Hashtbl.t;  (* equivalence keys seen at this ingress *)
  hmap : (string, (int * Sha1.t) list ref) Hashtbl.t;  (* class -> chain roots *)
  mutable hmap_refs : int;  (* total chain roots across hmap, for O(1) equi bytes *)
  mutable new_keys : string list;
  mutable wiped : bool;
  grown : (string, unit) Hashtbl.t;
}

type node_state = {
  prov : Rows.prov_row Store.table;  (* keyed by vid *)
  rule_exec : Rows.rule_exec_row Store.table;  (* plain layout, keyed by rid *)
  exec_nodes : Rows.rule_exec_row Store.table;  (* §5.4 ruleExecNode *)
  exec_links : Rows.link_row Store.table;  (* §5.4 ruleExecLink, keyed by rid *)
  equi : equi;
  slow_tuples : Store.side;
  events : Store.side;  (* evid -> input event at ingress *)
}

type conf = {
  keys : Dpc_analysis.Equi_keys.t;
  interclass : bool;
  (* Store-global bookkeeping, not node state: in the cluster checkpoint
     only, never in a node blob. *)
  orphans : int Atomic.t;
}

type t = (conf, node_state) Store.t

let prov_row = Store.prov_row ~with_evid:true
let chain_row = Store.exec_row ~with_next:true
let node_row = Store.exec_row ~with_next:false
let prov st = st.prov
let rule_exec st = st.rule_exec
let exec_nodes st = st.exec_nodes
let exec_links st = st.exec_links
let slow_tuples st = st.slow_tuples
let events st = st.events

let tick t node name = Metrics.incr (Dpc_engine.Node.metrics (Store.nodes t).(node)) name

(* Plain layout: the rid must identify the whole chain suffix, so it hashes
   the back-pointer too (Table 3's sha1(rule, vids) is ambiguous as soon as
   two classes share a final rule execution node). *)
let chain_rid ~rule_name ~node ~slow_vids ~prev =
  Sha1.digest_iter (fun f ->
    f rule_name;
    f "+";
    f (string_of_int node);
    List.iter
      (fun vid ->
        f "+";
        f (Sha1.to_raw vid))
      slow_vids;
    match prev with
    | None -> f "+leaf"
    | Some (l, r) ->
        f "+";
        f (string_of_int l);
        f "+";
        f (Sha1.to_raw r))

let on_input t ~node event =
  let meta = Dpc_engine.Prov_hook.initial_meta event in
  let k = Dpc_analysis.Equi_keys.key_hash (Store.conf t).keys event in
  let k_key = Rows.key k in
  let e = (Store.state t node).equi in
  let exist_flag = Hashtbl.mem e.htequi k_key in
  tick t node (if exist_flag then "store.equi_hits" else "store.equi_misses");
  if not exist_flag then begin
    Hashtbl.add e.htequi k_key ();
    (* No dupes possible: once present, [mem] short-circuits until the
       next wipe, and the wipe empties this list too. *)
    if Store.tracking t then e.new_keys <- k_key :: e.new_keys
  end;
  Store.put t ~node events ~key:meta.evid event;
  { meta with exist_flag; eqkey = Some k }

let on_fire t ~node ~(rule : Ast.rule) ~slow (meta : Dpc_engine.Prov_hook.meta) =
  if meta.exist_flag then meta
  else begin
    let slow_vids = List.map Rows.vid_of slow in
    List.iter2 (fun tuple vid -> Store.put t ~node slow_tuples ~key:vid tuple) slow slow_vids;
    if (Store.conf t).interclass then begin
      (* §5.4 layout: the node rid is shared across classes. *)
      let rid = Store_exspan.rid_of ~rule_name:rule.name ~node ~vids:slow_vids in
      Store.add t ~node exec_nodes
        { Rows.rloc = node; rid; rule = rule.name; vids = slow_vids; next = None };
      Store.add t ~node exec_links { Rows.link_rloc = node; link_rid = rid; link_next = meta.prev };
      { meta with prev = Some (node, rid) }
    end
    else begin
      let rid = chain_rid ~rule_name:rule.name ~node ~slow_vids ~prev:meta.prev in
      Store.add t ~node rule_exec
        { Rows.rloc = node; rid; rule = rule.name; vids = slow_vids; next = meta.prev };
      { meta with prev = Some (node, rid) }
    end
  end

let on_output t ~node output (meta : Dpc_engine.Prov_hook.meta) =
  let e = (Store.state t node).equi in
  let k_key =
    match meta.eqkey with
    | Some k -> Rows.key k
    | None -> invalid_arg "Store_advanced.on_output: meta has no equivalence key"
  in
  (* hmap associations are per (equivalence class, output relation): with
     extra relations of interest one class has several recorded output
     relations, each with its own chain reference(s). *)
  let k_key = k_key ^ ":" ^ Tuple.rel output in
  let vid = Rows.vid_of output in
  let add_row rref =
    Store.add t ~node prov { Rows.loc = node; vid; rid = Some rref; evid = Some meta.evid }
  in
  if not meta.exist_flag then begin
    match meta.prev with
    | None -> invalid_arg "Store_advanced.on_output: materializing execution has no chain"
    | Some rref ->
        let refs =
          match Hashtbl.find_opt e.hmap k_key with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.add e.hmap k_key r;
              r
        in
        if not (List.mem rref !refs) then begin
          refs := !refs @ [ rref ];
          e.hmap_refs <- e.hmap_refs + 1;
          if Store.tracking t then Hashtbl.replace e.grown k_key ()
        end;
        add_row rref
  end
  else begin
    match Hashtbl.find_opt e.hmap k_key with
    | Some refs when !refs <> [] -> List.iter add_row !refs
    | Some _ | None -> Atomic.incr (Store.conf t).orphans
  end

(* §5.5: any slow-table update — insert or delete — invalidates the
   equivalence classes observed so far; incoming events re-materialize.
   The delta records the wipe so replay reproduces it, and post-wipe
   insertions start a fresh dirty list. *)
let on_slow_update t ~node =
  let e = (Store.state t node).equi in
  Hashtbl.reset e.htequi;
  if Store.tracking t then begin
    e.wiped <- true;
    e.new_keys <- []
  end;
  (* The flush means re-materialization is coming: trees served from this
     node's pre-flush state must not be replayed from the memo cache. *)
  Store.invalidate_cache t node

let hook t =
  {
    Dpc_engine.Prov_hook.name =
      (if (Store.conf t).interclass then "advanced+interclass" else "advanced");
    on_input = (fun ~node event -> on_input t ~node event);
    on_fire = (fun ~node ~rule ~event:_ ~slow ~head:_ meta -> on_fire t ~node ~rule ~slow meta);
    on_output = (fun ~node output meta -> on_output t ~node output meta);
    on_slow_update = (fun ~node ~op:_ _ -> on_slow_update t ~node);
    (* existFlag + equivalence-key hash + event hash + back-pointer. *)
    meta_bytes = (fun _ -> 1 + 20 + 20 + Rows.ref_bytes);
  }

let orphan_outputs t = Atomic.get (Store.conf t).orphans
let interclass t = (Store.conf t).interclass

(* QUERY (Fig 18): collect the shared chain root-to-leaf — the plain
   layout has a unique successor per row, the §5.4 layout may branch on
   link rows — then TRANSFORM_TO_D re-derives the tree from the event
   retrieved by evid at the leaf's node. *)
let chains =
  {
    Store.env = Store.env;
    find_plan = Store.plan_named;
    chain_rows =
      (fun t node ->
        let st = Store.state t node in
        if interclass t then Store.Linked (st.exec_nodes.rows, st.exec_links.rows)
        else Chained st.rule_exec.rows);
    slow = (fun t node -> (Store.state t node).slow_tuples.tuples);
    leaf =
      (fun t acct ~evid (leaf : Rows.rule_exec_row) ->
        match evid with
        | None -> raise (Store.Broken "advanced prov row without evid")
        | Some evid ->
            let event = Store.lookup acct (Store.state t leaf.rloc).events.tuples evid in
            if Tuple.loc event <> leaf.rloc then raise (Store.Broken "event at wrong ingress");
            (event, leaf.vids));
  }

let walk t acct ~output ~evid rref = Store.chain_trees acct chains t ~output ~evid rref

let dump t =
  let n = Array.length (Store.nodes t) in
  let rows table node = Store.table_rows (table (Store.state t node)) in
  let ph, pr = Rows.dump_prov ~with_evid:true (rows prov) n in
  if interclass t then begin
    let nh, nr = Rows.dump_rule_exec ~with_next:false (rows exec_nodes) n in
    let link_rows =
      List.concat_map
        (fun node ->
          List.map
            (fun (l : Rows.link_row) ->
              [
                Printf.sprintf "n%d" l.link_rloc;
                Rows.show_digest l.link_rid;
                Rows.show_ref l.link_next;
              ])
            (rows exec_links node))
        (List.init n (fun i -> i))
      |> List.sort compare
    in
    [
      ("prov", ph, pr);
      ("ruleExecNode", nh, nr);
      ("ruleExecLink", [ "RLoc"; "RID"; "(NLoc,NRID)" ], link_rows);
    ]
  end
  else begin
    let rh, rr = Rows.dump_rule_exec ~with_next:true (rows rule_exec) n in
    [ ("prov", ph, pr); ("ruleExec", rh, rr) ]
  end

let write_hmap_assocs w assocs =
  let open Serialize in
  write_list w
    (fun (k, refs) ->
      write_string w k;
      write_list w
        (fun (n, d) ->
          write_varint w n;
          write_string w (Sha1.to_raw d))
        refs)
    (List.sort compare assocs)

(* Replace-wise hmap load shared by node restore and delta replay: the
   blob carries each touched class's FULL ref list, so installing it
   means subtracting whatever list was there before. *)
let read_hmap_assocs r e =
  let open Serialize in
  ignore
    (read_list r (fun () ->
       let k = read_string r in
       let refs =
         read_list r (fun () ->
           let n = read_varint r in
           (n, Sha1.of_raw (read_string r)))
       in
       (match Hashtbl.find_opt e.hmap k with
       | Some existing -> e.hmap_refs <- e.hmap_refs - List.length !existing
       | None -> ());
       e.hmap_refs <- e.hmap_refs + List.length refs;
       Hashtbl.replace e.hmap k (ref refs)))

(* The equivalence tables as a blob part: the full form is the sorted
   keys and classes; the delta form is the wipe flag, the keys added since
   (the wipe, or the last cut), and the current ref list of every class
   that grew. *)
let equi_part e =
  let open Serialize in
  Store.Extra
    {
      (* O(1): table lengths plus the maintained chain-root count. *)
      bytes =
        (fun () ->
          (Hashtbl.length e.htequi * 20) + (Hashtbl.length e.hmap * 20)
          + (e.hmap_refs * Rows.ref_bytes));
      write =
        (fun ~delta w ->
          if delta then begin
            write_bool w e.wiped;
            write_list w (write_string w) (List.sort compare e.new_keys);
            write_hmap_assocs w
              (Hashtbl.fold
                 (fun k () acc ->
                   match Hashtbl.find_opt e.hmap k with
                   | Some refs -> (k, !refs) :: acc
                   | None -> acc)
                 e.grown [])
          end
          else begin
            write_list w (write_string w)
              (Hashtbl.fold (fun k () acc -> k :: acc) e.htequi [] |> List.sort compare);
            write_hmap_assocs w (Hashtbl.fold (fun k refs acc -> (k, !refs) :: acc) e.hmap [])
          end);
      read =
        (fun ~delta r ->
          if delta && read_bool r then Hashtbl.reset e.htequi;
          ignore (read_list r (fun () -> Hashtbl.replace e.htequi (read_string r) ()));
          read_hmap_assocs r e);
      seal =
        (fun () ->
          e.new_keys <- [];
          e.wiped <- false;
          Hashtbl.reset e.grown);
    }

let policy =
  {
    Store.slug = "advanced";
    title = "Advanced";
    article = "an";
    fresh =
      (fun () ->
        {
          prov = Store.table prov_row;
          rule_exec = Store.table chain_row;
          exec_nodes = Store.table node_row;
          exec_links = Store.table Store.link_row;
          equi =
            { htequi = Hashtbl.create 32; hmap = Hashtbl.create 32; hmap_refs = 0;
              new_keys = []; wiped = false; grown = Hashtbl.create 8 };
          slow_tuples = Store.side ();
          events = Store.side ();
        });
    parts =
      (fun st ->
        [
          Store.Table st.prov; Table st.rule_exec; Table st.exec_nodes; Table st.exec_links;
          equi_part st.equi; Side st.slow_tuples; Side st.events;
        ]);
    prov;
    layout = Some (fun c -> c.interclass);
    trailer =
      ( (fun c w -> Serialize.write_varint w (Atomic.get c.orphans)),
        fun c r -> Atomic.set c.orphans (Serialize.read_varint r) );
    hook;
    walk;
    dump;
  }

let create ~delp ~env ~keys ?(interclass = false) ~nodes () =
  Store.create policy ~conf:{ keys; interclass; orphans = Atomic.make 0 } ~delp ~env ~nodes

let restore ~delp ~env ~keys blob =
  Store.restore policy blob ~create:(fun ~layout ~nodes ->
    create ~delp ~env ~keys ~interclass:(layout = Some true) ~nodes ())
