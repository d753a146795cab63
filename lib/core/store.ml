open Dpc_ndlog
open Dpc_util
module Node = Dpc_engine.Node
module S = Dpc_util.Serialize

(* ----------------------------------------------------------------- *)
(* Row tables and side stores *)

type 'r row = {
  prov : bool;
  key : 'r -> string;
  row_bytes : 'r -> int;
  write : S.writer -> 'r -> unit;
  read : S.reader -> 'r;
}

let prov_row ~with_evid =
  { prov = true; key = (fun (r : Rows.prov_row) -> Rows.key r.vid);
    row_bytes = Rows.prov_row_bytes ~with_evid; write = Rows.write_prov_row;
    read = Rows.read_prov_row }

let exec_row ~with_next =
  { prov = false; key = (fun (r : Rows.rule_exec_row) -> Rows.key r.rid);
    row_bytes = Rows.rule_exec_row_bytes ~with_next; write = Rows.write_rule_exec_row;
    read = Rows.read_rule_exec_row }

let link_row =
  { prov = false; key = (fun (r : Rows.link_row) -> Rows.key r.link_rid);
    row_bytes = Rows.link_row_bytes; write = Rows.write_link_row; read = Rows.read_link_row }

(* [dirty] holds the rows first written since the node's last checkpoint
   cut, for O(changes) delta checkpoints. It is only appended to while the
   store's [track_dirty] is on (the durable layer flips it at attach);
   every checkpoint/delta/restore of the node clears it. Tables never
   delete, so "dirty" is exactly "newly inserted". *)
type 'r table = { rows : 'r Rows.Table.t; mutable dirty : 'r list; row : 'r row }
type side = { tuples : Side_store.t; mutable dirty_tuples : (Sha1.t * Tuple.t) list }

let table row = { rows = Rows.Table.create ~row_bytes:row.row_bytes (); dirty = []; row }
let side () = { tuples = Side_store.create (); dirty_tuples = [] }

type extra = {
  bytes : unit -> int;
  write : delta:bool -> S.writer -> unit;
  read : delta:bool -> S.reader -> unit;
  seal : unit -> unit;
}

type part = Table : 'r table -> part | Side : side -> part | Extra : extra -> part

(* ----------------------------------------------------------------- *)
(* Query accounting *)

exception Broken of string

(* Mutable accounting threaded through a query. [up] is the liveness
   predicate: touching a down node charges the full bounded retry budget
   ((down_retries + 1) tries of down_timeout each), marks the result
   partial, and abandons the branch — the query never hangs on a dead
   node, it degrades. *)
type acct = {
  cost : Query_cost.t;
  routing : Dpc_net.Routing.t;
  up : int -> bool;
  querier : int;
  degraded : unit -> unit;
  mutable latency : float;
  mutable entries : int;
  mutable bytes : int;
  mutable rederives : int;
  mutable hop_s : float;
  mutable downs : int;
  mutable complete : bool;
  (* Nodes whose state the walk read (or tried to), for the query cache's
     dependency snapshot. Reset around each memoizable unit of work. *)
  mutable touched : int list;
}

let fresh_acct ~cost ~routing ~up ~querier ~degraded =
  { cost; routing; up; querier; degraded; latency = 0.0; entries = 0; bytes = 0;
    rederives = 0; hop_s = 0.0; downs = 0; complete = true; touched = [] }

let charge_entries acct n =
  acct.entries <- acct.entries + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_entry)

let charge_bytes acct n =
  acct.bytes <- acct.bytes + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_byte)

let charge_rederive acct n =
  acct.rederives <- acct.rederives + n;
  acct.latency <- acct.latency +. (float_of_int n *. acct.cost.Query_cost.per_rederive)

let charge_hop acct ~src ~dst =
  let h = Query_cost.hop acct.cost acct.routing ~src ~dst in
  acct.hop_s <- acct.hop_s +. h;
  acct.latency <- acct.latency +. h

let touch acct node =
  if not (List.mem node acct.touched) then acct.touched <- node :: acct.touched

(* Call before reading any state at [node]. *)
let require_up acct node =
  touch acct node;
  if not (acct.up node) then begin
    acct.downs <- acct.downs + 1;
    acct.latency <-
      acct.latency
      +. (float_of_int (acct.cost.Query_cost.down_retries + 1)
          *. acct.cost.Query_cost.down_timeout);
    if acct.complete then begin
      acct.complete <- false;
      acct.degraded ()
    end;
    raise (Broken (Printf.sprintf "node %d is down" node))
  end

let lookup acct store key =
  match Side_store.get store ~key with
  | Some tuple ->
      charge_bytes acct (Tuple.wire_size tuple);
      tuple
  | None -> raise (Broken (Printf.sprintf "tuple %s not materialized" (Rows.hex key)))

(* ----------------------------------------------------------------- *)
(* The chain walk shared by Basic, Advanced and the cross-program store *)

(* Where a node keeps its chain rows: one [ruleExec] table whose rows
   carry their (NLoc, NRID) back-pointer, or the §5.4 pair of
   [ruleExecNode] rows and per-tree [ruleExecLink] rows. *)
type layout =
  | Chained of Rows.rule_exec_row Rows.Table.t
  | Linked of Rows.rule_exec_row Rows.Table.t * Rows.link_row Rows.Table.t

type 'a chains = {
  env : 'a -> Dpc_engine.Env.t;
  find_plan : 'a -> string -> Dpc_engine.Eval.plan;
  chain_rows : 'a -> int -> layout;
  slow : 'a -> int -> Side_store.t;
  leaf : 'a -> acct -> evid:Sha1.t option -> Rows.rule_exec_row -> Tuple.t * Sha1.t list;
}

let max_chains = 64

(* Step 1: fetch the chain(s) root-to-leaf, charging hops. One reference
   can have several successors (an event tuple with several upstream
   derivations, or §5.4 link rows of several trees); the walk branches
   over them, each branch one candidate derivation. A chained row is
   charged just before it is followed; a §5.4 node row is charged with
   all its links before any is followed. *)
let fetch_chains acct src x ~start rref =
  let results = ref [] in
  let rec go at (rloc, rid) acc seen =
    if List.length !results >= max_chains then ()
    else begin
      charge_hop acct ~src:at ~dst:rloc;
      require_up acct rloc;
      let key = (rloc, Rows.key rid) in
      if List.mem key seen then () (* cycle through shared §5.4 rows *)
      else begin
        let seen = key :: seen in
        match src.chain_rows x rloc with
        | Chained table -> (
            match Rows.Table.find table (Rows.key rid) with
            | [] -> raise (Broken (Printf.sprintf "missing ruleExec %s" (Rows.hex rid)))
            | rows -> chained rloc acc seen rows)
        | Linked (nodes, links) -> (
            match Rows.Table.find nodes (Rows.key rid) with
            | [ row ] ->
                charge_entries acct 1;
                charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:false row);
                let links = Rows.Table.find links (Rows.key rid) in
                charge_entries acct (List.length links);
                List.iter (fun l -> charge_bytes acct (Rows.link_row_bytes l)) links;
                if links = [] then raise (Broken "ruleExecNode with no link row");
                linked rloc acc seen row links
            | _ -> raise (Broken "missing or duplicate ruleExecNode"))
      end
    end
  and chained rloc acc seen = function
    | [] -> ()
    | (row : Rows.rule_exec_row) :: rest ->
        charge_entries acct 1;
        charge_bytes acct (Rows.rule_exec_row_bytes ~with_next:true row);
        step rloc acc seen row row.next;
        chained rloc acc seen rest
  and linked rloc acc seen row = function
    | [] -> ()
    | (l : Rows.link_row) :: rest ->
        step rloc acc seen row l.link_next;
        linked rloc acc seen row rest
  and step rloc acc seen row = function
    | None -> results := List.rev (row :: acc) :: !results
    | Some next -> go rloc next (row :: acc) seen
  in
  go start rref [] [];
  !results

(* Re-execute one recorded rule on its trigger and the slow tuples it
   joined, fetched at the executing node. *)
let fire acct src x (row : Rows.rule_exec_row) ~event ~slow_vids trigger =
  let slow = List.map (lookup acct (src.slow x row.rloc)) slow_vids in
  let plan = src.find_plan x row.rule in
  charge_rederive acct 1;
  match Dpc_engine.Eval.fire_with_slow ~env:(src.env x) ~plan ~event ~slow with
  | Some head ->
      let rule = (Dpc_engine.Eval.plan_rule plan).name in
      ({ Prov_tree.rule; output = head; trigger; slow }, head)
  | None -> raise (Broken "re-derivation failed")

(* Step 2: re-derive the intermediate events from the leaf upward,
   assembling the provenance tree. [chain] is root-to-leaf. *)
let rec rederive acct src x ~evid = function
  | [] -> raise (Broken "empty chain")
  | [ leaf ] ->
      let event, slow_vids = src.leaf x acct ~evid leaf in
      fire acct src x leaf ~event ~slow_vids (Prov_tree.Event event)
  | (row : Rows.rule_exec_row) :: rest ->
      let sub, sub_head = rederive acct src x ~evid rest in
      if Tuple.loc sub_head <> row.rloc then raise (Broken "chain/location mismatch");
      fire acct src x row ~event:sub_head ~slow_vids:row.vids (Prov_tree.Derived sub)

let chain_trees acct src x ~output ~evid rref =
  match fetch_chains acct src x ~start:(Tuple.loc output) rref with
  | chains ->
      List.filter_map
        (fun chain ->
          match rederive acct src x ~evid chain with
          | tree, head when Tuple.equal head output -> Some tree
          | _ -> None
          | exception Broken _ -> None)
        chains
  | exception Broken _ -> []

(* The query frame: the querier's own liveness, its prov rows for the
   output, one (memoizable) walk per chain root, the return trip. A row
   that records its input event is selected by [evid] before the walk;
   for rows that do not, the reconstructed trees are filtered after it. *)
let answer ~prov ~memo ~walk x acct ?evid output =
  let querier = acct.querier in
  let trees =
    match require_up acct querier with
    | exception Broken _ -> []
    | () ->
        let htp = Rows.vid_of output in
        let rows = Rows.Table.find (prov x querier) (Rows.key htp) in
        let rows =
          match evid with
          | None -> rows
          | Some e ->
              List.filter
                (fun (r : Rows.prov_row) ->
                  match r.evid with Some re -> Sha1.equal re e | None -> true)
                rows
        in
        charge_entries acct (max 1 (List.length rows));
        List.concat_map
          (fun (r : Rows.prov_row) ->
            match r.rid with
            | None -> []
            | Some rref -> (
                let ctx =
                  match r.evid with
                  | Some e -> Sha1.to_raw e ^ Sha1.to_raw htp
                  | None -> Sha1.to_raw htp
                in
                let trees =
                  memo x acct ~rref ~ctx (fun () -> walk x acct ~output ~evid:r.evid rref)
                in
                match (evid, r.evid) with
                | Some e, None ->
                    List.filter (fun tr -> Sha1.equal (Prov_tree.event_id tr) e) trees
                | _ -> trees))
          rows
  in
  (* Return trip: ship the collected data back to the querier. *)
  (match trees with
  | [] -> ()
  | tr :: _ -> charge_hop acct ~src:(Tuple.loc (Prov_tree.event_of tr)) ~dst:querier);
  { Query_result.trees = Query_result.dedup_trees trees; latency = acct.latency;
    entries = acct.entries; bytes = acct.bytes; rederives = acct.rederives;
    hop_s = acct.hop_s; downs = acct.downs; complete = acct.complete }

(* ----------------------------------------------------------------- *)
(* The store *)

type 's node = {
  s : 's;
  parts : part list;
  (* Write generation for the query cache's staleness check: bumped on
     every accepted insert (rows and side entries). The cache snapshots
     the generations of the nodes a walk read; a moved generation
     invalidates the memo entry. *)
  mutable gen : int;
}

type ('c, 's) t = {
  delp : Delp.t;
  env : Dpc_engine.Env.t;
  plans : (string, Dpc_engine.Eval.plan) Hashtbl.t;  (* rule name -> plan, for re-derivation *)
  conf : 'c;
  policy : ('c, 's) policy;
  nodes : Node.t array;
  key : 's node Node.key;
  init : unit -> 's node;
  mutable track_dirty : bool;
  mutable degraded_sink : (int -> unit) option;
  mutable cache : Query_cache.t option;
  mutable reset_hooked : bool;
}

and ('c, 's) policy = {
  slug : string;
  title : string;
  article : string;
  fresh : unit -> 's;
  parts : 's -> part list;
  prov : 's -> Rows.prov_row table;
  layout : ('c -> bool) option;
  trailer : ('c -> S.writer -> unit) * ('c -> S.reader -> unit);
  hook : ('c, 's) t -> Dpc_engine.Prov_hook.t;
  walk :
    ('c, 's) t ->
    acct ->
    output:Tuple.t ->
    evid:Sha1.t option ->
    int * Sha1.t ->
    Prov_tree.t list;
  dump : ('c, 's) t -> (string * string list * string list list) list;
}

let no_trailer = ((fun _ _ -> ()), fun _ _ -> ())

let create policy ~conf ~delp ~env ~nodes =
  let init () =
    let s = policy.fresh () in
    { s; parts = policy.parts s; gen = 0 }
  in
  let plans = Hashtbl.create 8 in
  List.iter
    (fun (r : Ast.rule) -> Hashtbl.replace plans r.name (Dpc_engine.Eval.plan r))
    delp.Delp.program.rules;
  { delp; env; plans; conf; policy; nodes = Node.cluster nodes;
    key = Node.key ~name:("store." ^ policy.slug) (); init; track_dirty = false;
    degraded_sink = None; cache = None; reset_hooked = false }

let node_state t node = Node.get_or_init t.nodes.(node) t.key ~init:t.init
let state t node = (node_state t node).s
let nodes t = t.nodes
let conf t = t.conf
let delp t = t.delp
let env t = t.env

let plan_named t name =
  match Hashtbl.find_opt t.plans name with
  | Some p -> p
  | None -> raise (Broken (Printf.sprintf "unknown rule %s" name))

let tracking t = t.track_dirty
let set_track_dirty t on = t.track_dirty <- on
let hook t = t.policy.hook t
let dump t = t.policy.dump t

let insert t ~node n tbl row =
  if Rows.Table.add tbl.rows ~key:(tbl.row.key row) row then begin
    n.gen <- n.gen + 1;
    if t.track_dirty then tbl.dirty <- row :: tbl.dirty;
    Metrics.incr (Node.metrics t.nodes.(node))
      (if tbl.row.prov then "store.prov_rows" else "store.rule_exec_rows")
  end

let add t ~node select row =
  let n = node_state t node in
  insert t ~node n (select n.s) row

let put t ~node select ~key tuple =
  let n = node_state t node in
  let side = select n.s in
  if Side_store.put_new side.tuples ~key tuple then begin
    n.gen <- n.gen + 1;
    if t.track_dirty then side.dirty_tuples <- (key, tuple) :: side.dirty_tuples
  end

let table_rows tbl =
  let acc = ref [] in
  Rows.Table.iter tbl.rows (fun _ r -> acc := r :: !acc);
  !acc

(* Degraded-query accounting. By default the tick lands in the querier's
   volatile registry and dies with it on a crash; a durable layer
   re-routes it through [set_degraded_sink] (see [Backend] / [Durable])
   so the count survives. *)
let set_degraded_sink t f = t.degraded_sink <- Some f

let degraded_for t querier () =
  match t.degraded_sink with
  | Some f -> f querier
  | None -> Metrics.incr (Node.metrics t.nodes.(querier)) "crash.queries_degraded"

(* Query-cache plumbing: the backend attaches one shared cache; the store
   invalidates by node on §5.5 sig flushes and on crash resets. The
   Node.on_reset hooks are registered once per store and survive the
   reset itself (see [Node]). *)
let invalidate_cache t node =
  match t.cache with None -> () | Some cache -> Query_cache.invalidate_node cache node

let set_query_cache t cache =
  t.cache <- cache;
  if cache <> None && not t.reset_hooked then begin
    t.reset_hooked <- true;
    Array.iteri (fun node n -> Node.on_reset n (fun () -> invalidate_cache t node)) t.nodes
  end

let query_cache t = t.cache

(* Memoize one unit of reconstruction (everything reachable from [rref]
   for the context [ctx]) in the attached cache, if any. Only walks that
   never hit a down node are recorded; a hit charges one lookup entry and
   skips the hops/rederives entirely — that's the serving-tier win. *)
let with_cache t acct ~rref:(rloc, rid) ~ctx compute =
  match t.cache with
  | None -> compute ()
  | Some cache -> (
      let key = Query_cache.key ~loc:rloc ~rid ~ctx in
      let gen node = (node_state t node).gen in
      match Query_cache.find cache ~querier:acct.querier ~up:acct.up ~gen key with
      | Some trees ->
          charge_entries acct 1;
          trees
      | None ->
          let outer = acct.touched and downs0 = acct.downs in
          acct.touched <- [];
          let trees = compute () in
          if acct.downs = downs0 then
            Query_cache.add cache ~querier:acct.querier
              ~deps:(List.map (fun n -> (n, gen n)) acct.touched)
              key trees;
          acct.touched <- List.rev_append outer acct.touched;
          trees)

let query t ~cost ~routing ?evid ?(up = fun _ -> true) output =
  let querier = Tuple.loc output in
  let acct = fresh_acct ~cost ~routing ~up ~querier ~degraded:(degraded_for t querier) in
  answer
    ~prov:(fun t node -> (t.policy.prov (state t node)).rows)
    ~memo:with_cache
    ~walk:(fun t acct ~output ~evid rref -> t.policy.walk t acct ~output ~evid rref)
    t acct ?evid output

let node_storage t node =
  List.fold_left
    (fun (s : Rows.storage) -> function
      | Table { rows; row; _ } when row.prov ->
          { s with prov_bytes = s.prov_bytes + Rows.Table.bytes rows;
                   prov_rows = s.prov_rows + Rows.Table.rows rows }
      | Table { rows; _ } ->
          { s with rule_exec_bytes = s.rule_exec_bytes + Rows.Table.bytes rows;
                   rule_exec_rows = s.rule_exec_rows + Rows.Table.rows rows }
      | Side side -> { s with event_bytes = s.event_bytes + Side_store.bytes side.tuples }
      | Extra e -> { s with equi_bytes = s.equi_bytes + e.bytes () })
    Rows.empty_storage (node_state t node).parts

let total_storage t =
  Array.to_list (Array.mapi (fun i _ -> node_storage t i) t.nodes)
  |> List.fold_left Rows.add_storage Rows.empty_storage

(* ----------------------------------------------------------------- *)
(* Blob framing. Three kinds share one layout: the magic, the layout flag
   (schemes that have one), then the scheme's parts in declaration order,
   rows and side entries canonically sorted so a blob is byte-stable for
   a given state however it was reached. A node blob holds one node's
   parts; a delta holds only what was inserted since the last cut; the
   cluster blob holds every node's row tables and extra state, then each
   side store across all nodes as (node, key, tuple), then the trailer.
   Every reader rejects a wrong magic, a layout mismatch and trailing
   bytes with [Corrupt]. *)

type kind = Cluster | Full | Delta

let magic p = function
  | Cluster -> "dpc-" ^ p.slug ^ "-v1"
  | Full -> "dpc-" ^ p.slug ^ "-node-v1"
  | Delta -> "dpc-" ^ p.slug ^ "-delta-v1"

let what = function
  | Cluster -> "checkpoint"
  | Full -> "node checkpoint"
  | Delta -> "node delta"

let open_blob p kind blob =
  let r = S.reader blob in
  if not (String.equal (S.read_string r) (magic p kind)) then
    raise (S.Corrupt (Printf.sprintf "not %s %s %s" p.article p.title (what kind)));
  r

let close_blob p kind r =
  if not (S.at_end r) then
    raise (S.Corrupt (Printf.sprintf "trailing bytes in %s %s" p.title (what kind)))

let write_head t kind w =
  S.write_string w (magic t.policy kind);
  Option.iter (fun layout -> S.write_bool w (layout t.conf)) t.policy.layout

let check_layout t kind r =
  Option.iter
    (fun layout ->
      if S.read_bool r <> layout t.conf then
        raise (S.Corrupt (what kind ^ " layout mismatch")))
    t.policy.layout

let by_key (k1, _) (k2, _) = compare (Sha1.to_raw k1) (Sha1.to_raw k2)

let side_list side =
  let acc = ref [] in
  Side_store.iter side.tuples (fun ~key tuple -> acc := (key, tuple) :: !acc);
  !acc

let write_entries w entries =
  S.write_list w
    (fun (key, tuple) ->
      S.write_string w (Sha1.to_raw key);
      Tuple.serialize w tuple)
    (List.sort by_key entries)

let write_part ~delta w = function
  | Table tbl ->
      S.write_list w (tbl.row.write w)
        (List.sort compare (if delta then tbl.dirty else table_rows tbl))
  | Side side -> write_entries w (if delta then side.dirty_tuples else side_list side)
  | Extra e -> e.write ~delta w

let read_entry r put =
  let key = Sha1.of_raw (S.read_string r) in
  put key (Tuple.deserialize r)

let read_part t ~node n ~delta r = function
  | Table tbl -> List.iter (insert t ~node n tbl) (S.read_list r (fun () -> tbl.row.read r))
  | Side side ->
      ignore
        (S.read_list r (fun () -> read_entry r (fun key -> Side_store.put side.tuples ~key)))
  | Extra e -> e.read ~delta r

let seal (n : _ node) =
  List.iter
    (function
      | Table tbl -> tbl.dirty <- []
      | Side side -> side.dirty_tuples <- []
      | Extra e -> e.seal ())
    n.parts

let blob t kind node =
  let n = node_state t node in
  S.with_scratch (fun w ->
      write_head t kind w;
      List.iter (write_part ~delta:(kind = Delta) w) n.parts)

(* [checkpoint_node] and [checkpoint_delta] seal dirty tracking around the
   blob; [digest_node] deliberately does not. *)
let checkpoint_node t node =
  let b = blob t Full node in
  seal (node_state t node);
  b

let digest_node t node = Sha1.to_hex (Sha1.digest_string (blob t Full node))

let checkpoint_delta t node =
  let b = blob t Delta node in
  seal (node_state t node);
  b

(* Loading goes through [insert], so the store.* counters (wiped with the
   node) are rebuilt; side entries are installed without a generation
   bump. *)
let load t kind node b =
  let r = open_blob t.policy kind b in
  check_layout t kind r;
  let n = node_state t node in
  List.iter (read_part t ~node n ~delta:(kind = Delta) r) n.parts;
  close_blob t.policy kind r;
  seal n

let restore_node t node b = load t Full node b
let apply_delta t node b = load t Delta node b

let is_side = function Side _ -> true | Table _ | Extra _ -> false
let sides (n : _ node) =
  List.filter_map (function Side s -> Some s | Table _ | Extra _ -> None) n.parts

(* The number of side stores a node of this scheme declares, known even
   for a cluster with no nodes. *)
let side_slots p = List.length (List.filter is_side (p.parts (p.fresh ())))

let checkpoint t =
  let w = S.writer () in
  write_head t Cluster w;
  let count = Array.length t.nodes in
  S.write_varint w count;
  let states = Array.init count (node_state t) in
  Array.iter
    (fun (n : _ node) ->
      List.iter (fun p -> if not (is_side p) then write_part ~delta:false w p) n.parts)
    states;
  for slot = 0 to side_slots t.policy - 1 do
    let entries =
      Array.to_list states
      |> List.mapi (fun node (n : _ node) ->
             List.map (fun (key, tuple) -> (node, key, tuple))
               (List.sort by_key (side_list (List.nth (sides n) slot))))
      |> List.concat
    in
    S.write_list w
      (fun (node, key, tuple) ->
        S.write_varint w node;
        S.write_string w (Sha1.to_raw key);
        Tuple.serialize w tuple)
      entries
  done;
  fst t.policy.trailer t.conf w;
  S.contents w

let restore policy ~create b =
  let r = open_blob policy Cluster b in
  let layout = Option.map (fun _ -> S.read_bool r) policy.layout in
  let count = S.read_varint r in
  let t = create ~layout ~nodes:count in
  for node = 0 to count - 1 do
    let n = node_state t node in
    List.iter (fun p -> if not (is_side p) then read_part t ~node n ~delta:false r p) n.parts
  done;
  for slot = 0 to side_slots policy - 1 do
    ignore
      (S.read_list r (fun () ->
         let node = S.read_varint r in
         let side = List.nth (sides (node_state t node)) slot in
         read_entry r (fun key -> Side_store.put side.tuples ~key)))
  done;
  snd policy.trailer t.conf r;
  close_blob policy Cluster r;
  t
