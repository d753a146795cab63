(** Equivalence-based online compression (paper §5, Table 3).

    Stage 1: at the ingress node, the event's equivalence-key values
    (identified by static analysis, {!Dpc_analysis.Equi_keys}) are hashed
    and checked against the node's [htequi]; a hit sets [existFlag].
    Stage 2: rule executions store [ruleExec] rows only when
    [existFlag = false] — one shared chain per equivalence class.
    Stage 3: at the output node, every execution stores a small [prov] delta
    [(VID, RLoc, RID, EVID)] referencing the shared chain via [hmap].

    With [~interclass:true], the §5.4 layout splits [ruleExec] into a
    [ruleExecNode] table (concrete rule executions, deduplicated across
    equivalence classes) and a [ruleExecLink] table (per-tree parent/child
    pointers), so chains that overlap — e.g. crossing traffic sharing a
    path suffix — share rows.

    Slow-changing inserts (§5.5) clear [htequi] at every node receiving the
    [sig] broadcast, forcing re-materialization of each class's chain.

    A {!Store} policy. Its node blobs carry the equivalence state
    ([htequi]/[hmap], both ingress-local) after the row tables, and every
    blob carries the layout flag after its magic; a delta records whether
    [htequi] was wiped, the keys added since, and the full current ref list
    of every [hmap] class that grew. Queries are the paper's QUERY (Fig
    18): the prov deltas of the tuple, the shared chain(s), the input event
    retrieved by [evid] at the leaf's node, and re-derivation upward;
    candidate chains that fail re-derivation (possible under the §5.4
    layout, where link rows of different trees may alternate) are
    discarded. *)

type node_state
type conf

type t = (conf, node_state) Store.t

val create :
  delp:Dpc_ndlog.Delp.t ->
  env:Dpc_engine.Env.t ->
  keys:Dpc_analysis.Equi_keys.t ->
  ?interclass:bool ->
  nodes:int ->
  unit ->
  t
(** Builds a fresh [nodes]-node cluster; row writes tick the node's
    [store.*] counters, including [store.equi_hits]/[store.equi_misses]
    at ingress. *)

val restore :
  delp:Dpc_ndlog.Delp.t ->
  env:Dpc_engine.Env.t ->
  keys:Dpc_analysis.Equi_keys.t ->
  string ->
  t
(** Rebuild a store from {!Store.checkpoint} output, in the layout the
    blob records. Maintenance continues after a restore: the equivalence
    tables and the orphan count travel with the checkpoint.
    @raise Dpc_util.Serialize.Corrupt on malformed input. *)

val interclass : t -> bool
(** Whether the store uses the §5.4 inter-class layout. *)

val orphan_outputs : t -> int
(** Outputs that arrived with [existFlag = true] but found no [hmap] entry
    (possible when a §5.5 reset races in-flight executions); their
    provenance is not recorded, mirroring the paper's assumption that
    updates quiesce before querying. *)
