(** Uniform interface over the three provenance maintenance schemes the
    evaluation compares: ExSPAN (uncompressed), Basic (§4), and Advanced
    (§5, optionally with the §5.4 inter-class layout). Every scheme is a
    {!Store} policy, so a backend is one store of any scheme. *)

type t
(** A store and the scheme it was made or restored as. *)

type scheme = S_exspan | S_basic | S_advanced | S_advanced_interclass

val all_schemes : scheme list
val scheme_name : scheme -> string

val make :
  scheme ->
  delp:Dpc_ndlog.Delp.t ->
  env:Dpc_engine.Env.t ->
  nodes:int ->
  t
(** Builds the store; for the Advanced schemes this runs the static
    analysis ({!Dpc_analysis.Equi_keys.compute}) first. *)

val name : t -> string
(** {!scheme_name} of the backend's scheme. *)

val nodes : t -> Dpc_engine.Node.t array
(** The store's cluster; pass to [Runtime.create ~nodes] so the runtime
    and the store share per-node state and metrics. *)

val hook : t -> Dpc_engine.Prov_hook.t

val set_degraded_sink : t -> (int -> unit) -> unit
(** Re-route the degraded-query tick ([crash.queries_degraded]): [f
    querier] runs instead of the default increment on the querier's
    volatile registry. {!Durable.attach} installs a sink that counts into
    the durable per-node log, so the tally survives a crash of the
    querier like the other [crash.*] counters. *)

val node_storage : t -> int -> Rows.storage
val total_storage : t -> Rows.storage

val query :
  t ->
  cost:Query_cost.t ->
  routing:Dpc_net.Routing.t ->
  ?evid:Dpc_util.Sha1.t ->
  ?up:(int -> bool) ->
  Dpc_ndlog.Tuple.t ->
  Query_result.t
(** [up] is the node-liveness predicate (default: everything up). A query
    that touches a down node is charged the bounded timeout/retry budget
    from {!Query_cost} and returns a result marked
    [Query_result.complete = false] instead of hanging or raising. *)

val query_page :
  t ->
  cost:Query_cost.t ->
  routing:Dpc_net.Routing.t ->
  ?evid:Dpc_util.Sha1.t ->
  ?up:(int -> bool) ->
  ?cursor:string ->
  limit:int ->
  Dpc_ndlog.Tuple.t ->
  Query_result.t * Query_result.page
(** {!query}, then one bounded page of the canonical tree order (see
    {!Query_result.paginate}). The full result is returned alongside so
    callers still see latency/completeness accounting.
    @raise Invalid_argument on a bad [limit] or [cursor]. *)

(** {2 Query serving tier: memoization}

    One {!Query_cache.t} is shared by every node of the backend. Attach
    registers the crash-invalidation hooks ({!Dpc_engine.Node.on_reset})
    and wires [query.cache.*] metrics into the per-node registries; §5.5
    [sig] deliveries invalidate through each store's [on_slow_update]. *)

val attach_query_cache : ?capacity:int -> t -> Query_cache.t
val query_cache : t -> Query_cache.t option
val detach_query_cache : t -> unit

val set_query_cache : t -> Query_cache.t option -> unit
(** Install a specific cache instance (e.g. one shared across backends);
    {!attach_query_cache} is the common path. *)

val dump : t -> (string * string list * string list list) list
(** The backend's relational tables as [(name, header, rows)], for
    inspection and the example programs. *)

val checkpoint : t -> string
(** Serialize the store to bytes (scheme-tagged). *)

val restore :
  scheme -> delp:Dpc_ndlog.Delp.t -> env:Dpc_engine.Env.t -> string -> t
(** Rebuild a store from {!checkpoint} output. The scheme must match the
    one the checkpoint was taken from, including the Advanced layout.
    @raise Dpc_util.Serialize.Corrupt on malformed or mismatched input,
    including trailing bytes. *)

val checkpoint_node : t -> int -> string
(** Serialize one node's tables for its durable checkpoint (used by
    {!Durable} between WAL compactions). *)

val digest_node : t -> int -> string
(** SHA-1 (hex) of the node's canonical checkpoint blob WITHOUT sealing
    dirty tracking — a pure observation, safe to take between delta
    cuts. Equal digests mean byte-identical node tables; this is what
    the real-process transparency oracle compares against the
    simulator. *)

val restore_node : t -> int -> string -> unit
(** Reload one node's tables after a {!Dpc_engine.Node.reset}, from
    {!checkpoint_node} output taken on the same scheme.
    @raise Dpc_util.Serialize.Corrupt on malformed or mismatched input,
    including trailing bytes. *)

val set_dirty_tracking : t -> bool -> unit
(** Enable per-node dirty-set tracking so {!checkpoint_delta} captures
    everything written after this call. {!Durable.attach} turns it on
    when delta checkpoints are configured; it is off by default because
    tracking costs a list cons per insert. *)

val checkpoint_delta : t -> int -> string
(** Serialize one node's changes since its last cut
    ({!checkpoint_node}, {!checkpoint_delta}, or {!restore_node} /
    {!apply_delta}) — O(changes), not O(state) — and clear its dirty
    set. Meaningful only with {!set_dirty_tracking} on. *)

val apply_delta : t -> int -> string -> unit
(** Replay one {!checkpoint_delta} blob on top of the node's current
    state; apply a base {!restore_node} first, then each delta oldest
    to newest. @raise Dpc_util.Serialize.Corrupt on malformed or
    mismatched input. *)
