type scheme = S_exspan | S_basic | S_advanced | S_advanced_interclass

(* One store of any scheme: every operation but [make]/[restore] is the
   skeleton's, and the policy inside the store supplies the rest. *)
type t = T : scheme * ('c, 's) Store.t -> t

let all_schemes = [ S_exspan; S_basic; S_advanced; S_advanced_interclass ]

let scheme_name = function
  | S_exspan -> "ExSPAN"
  | S_basic -> "Basic"
  | S_advanced -> "Advanced"
  | S_advanced_interclass -> "Advanced+interclass"

let make scheme ~delp ~env ~nodes =
  match scheme with
  | S_exspan -> T (scheme, Store_exspan.create ~delp ~env ~nodes)
  | S_basic -> T (scheme, Store_basic.create ~delp ~env ~nodes)
  | S_advanced | S_advanced_interclass ->
      let keys = Dpc_analysis.Equi_keys.compute delp in
      let interclass = scheme = S_advanced_interclass in
      T (scheme, Store_advanced.create ~delp ~env ~keys ~interclass ~nodes ())

let restore scheme ~delp ~env blob =
  match scheme with
  | S_exspan -> T (scheme, Store_exspan.restore ~delp ~env blob)
  | S_basic -> T (scheme, Store_basic.restore ~delp ~env blob)
  | S_advanced | S_advanced_interclass ->
      let keys = Dpc_analysis.Equi_keys.compute delp in
      let s = Store_advanced.restore ~delp ~env ~keys blob in
      if Store_advanced.interclass s <> (scheme = S_advanced_interclass) then
        raise (Dpc_util.Serialize.Corrupt "Advanced checkpoint layout mismatch");
      T (scheme, s)

let name (T (scheme, _)) = scheme_name scheme
let nodes (T (_, s)) = Store.nodes s
let hook (T (_, s)) = Store.hook s
let set_degraded_sink (T (_, s)) f = Store.set_degraded_sink s f
let node_storage (T (_, s)) node = Store.node_storage s node
let total_storage (T (_, s)) = Store.total_storage s
let query (T (_, s)) ~cost ~routing ?evid ?up output = Store.query s ~cost ~routing ?evid ?up output

let query_page t ~cost ~routing ?evid ?up ?cursor ~limit output =
  let r = query t ~cost ~routing ?evid ?up output in
  (r, Query_result.paginate ?cursor ~limit r.Query_result.trees)

let set_query_cache (T (_, s)) cache = Store.set_query_cache s cache
let query_cache (T (_, s)) = Store.query_cache s

let attach_query_cache ?capacity t =
  let cluster = nodes t in
  let tick ~node name by = Dpc_util.Metrics.incr ~by (Dpc_engine.Node.metrics cluster.(node)) name in
  let cache = Query_cache.create ?capacity ~tick () in
  set_query_cache t (Some cache);
  cache

let detach_query_cache t = set_query_cache t None
let dump (T (_, s)) = Store.dump s
let checkpoint (T (_, s)) = Store.checkpoint s
let checkpoint_node (T (_, s)) node = Store.checkpoint_node s node
let digest_node (T (_, s)) node = Store.digest_node s node
let restore_node (T (_, s)) node blob = Store.restore_node s node blob
let set_dirty_tracking (T (_, s)) on = Store.set_track_dirty s on
let checkpoint_delta (T (_, s)) node = Store.checkpoint_delta s node
let apply_delta (T (_, s)) node blob = Store.apply_delta s node blob
