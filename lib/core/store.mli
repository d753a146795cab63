(** The store skeleton shared by the three provenance schemes.

    ExSPAN (§2.2), Basic (§4) and Advanced (§5) differ only in what they
    record when a rule fires and what they keep. Everything else lives
    here, once: the per-node state plumbing (tables, side stores, dirty
    sets for delta checkpoints, the write generation), the degraded-query
    sink and the query-cache hooks, query accounting and the query frame,
    the chain re-execution walk of Basic and Advanced, and the framing of
    the three blob kinds (cluster checkpoint, node checkpoint, node
    delta). A scheme is a {!policy}: its per-node state, the parts of that
    state in blob order, its {!Dpc_engine.Prov_hook.t}, its query walk and
    its table dump. *)

(** {1 Row tables and side stores} *)

type 'r row = {
  prov : bool;  (** counted as a [prov] row; otherwise as a [ruleExec] row *)
  key : 'r -> string;  (** the table key of a row *)
  row_bytes : 'r -> int;
  write : Dpc_util.Serialize.writer -> 'r -> unit;
  read : Dpc_util.Serialize.reader -> 'r;
}
(** How a kind of row is keyed, sized and serialized. *)

val prov_row : with_evid:bool -> Rows.prov_row row
val exec_row : with_next:bool -> Rows.rule_exec_row row
val link_row : Rows.link_row row

type 'r table = private {
  rows : 'r Rows.Table.t;
  mutable dirty : 'r list;  (** rows inserted since the node's last cut *)
  row : 'r row;
}

val table : 'r row -> 'r table

type side = private {
  tuples : Side_store.t;
  mutable dirty_tuples : (Dpc_util.Sha1.t * Dpc_ndlog.Tuple.t) list;
}
(** A digest-keyed tuple store (slow tuples, input events). *)

val side : unit -> side

type extra = {
  bytes : unit -> int;  (** counted as equivalence-table bytes *)
  write : delta:bool -> Dpc_util.Serialize.writer -> unit;
  read : delta:bool -> Dpc_util.Serialize.reader -> unit;
  seal : unit -> unit;  (** forget the changes since the last cut *)
}
(** Scheme-specific node state that is neither rows nor tuples (Advanced's
    [htequi]/[hmap]), with its own full and delta encodings. *)

type part = Table : 'r table -> part | Side : side -> part | Extra : extra -> part

(** {1 Query accounting} *)

exception Broken of string
(** A walk branch that cannot continue: a down node, a missing row, or a
    failed re-derivation. The query frame abandons the branch. *)

type acct
(** Latency, entries, bytes, re-derivations and hops charged to one
    query, and the nodes it read. *)

val fresh_acct :
  cost:Query_cost.t ->
  routing:Dpc_net.Routing.t ->
  up:(int -> bool) ->
  querier:int ->
  degraded:(unit -> unit) ->
  acct

val charge_entries : acct -> int -> unit
val charge_bytes : acct -> int -> unit
val charge_hop : acct -> src:int -> dst:int -> unit

val require_up : acct -> int -> unit
(** Call before reading any state at a node. A down node costs the
    bounded retry budget, marks the result partial, and raises {!Broken}. *)

val lookup : acct -> Side_store.t -> Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t
(** Fetch a materialized tuple, charging its wire size.
    @raise Broken if it is absent. *)

(** {1 The chain walk} *)

type layout =
  | Chained of Rows.rule_exec_row Rows.Table.t
      (** [ruleExec] rows carrying their [(NLoc, NRID)] back-pointer;
          each row is charged as it is followed *)
  | Linked of Rows.rule_exec_row Rows.Table.t * Rows.link_row Rows.Table.t
      (** the §5.4 [ruleExecNode] and [ruleExecLink] tables; the node row
          and all its links are charged before any link is followed *)
(** Where a node keeps its chain rows. *)

type 'a chains = {
  env : 'a -> Dpc_engine.Env.t;
  find_plan : 'a -> string -> Dpc_engine.Eval.plan;
      (** the compiled rule a chain row names, for re-derivation *)
  chain_rows : 'a -> int -> layout;  (** the chain rows at a node *)
  slow : 'a -> int -> Side_store.t;  (** the slow-tuple store at a node *)
  leaf :
    'a ->
    acct ->
    evid:Dpc_util.Sha1.t option ->
    Rows.rule_exec_row ->
    Dpc_ndlog.Tuple.t * Dpc_util.Sha1.t list;
      (** the leaf's input event (charged) and its slow-tuple vids *)
}
(** Where a chain-compressed store ['a] keeps its chains. *)

val chain_trees :
  acct ->
  'a chains ->
  'a ->
  output:Dpc_ndlog.Tuple.t ->
  evid:Dpc_util.Sha1.t option ->
  int * Dpc_util.Sha1.t ->
  Prov_tree.t list
(** Fetch every chain from a root reference (at most 64), re-derive each
    bottom-up, and keep the trees whose root is [output]. *)

val answer :
  prov:('a -> int -> Rows.prov_row Rows.Table.t) ->
  memo:
    ('a ->
    acct ->
    rref:int * Dpc_util.Sha1.t ->
    ctx:string ->
    (unit -> Prov_tree.t list) ->
    Prov_tree.t list) ->
  walk:
    ('a ->
    acct ->
    output:Dpc_ndlog.Tuple.t ->
    evid:Dpc_util.Sha1.t option ->
    int * Dpc_util.Sha1.t ->
    Prov_tree.t list) ->
  'a ->
  acct ->
  ?evid:Dpc_util.Sha1.t ->
  Dpc_ndlog.Tuple.t ->
  Query_result.t
(** The query frame over a store ['a]: check the querier is up, fetch its
    [prov] rows for the output (rows that record an event id are selected
    by [evid]), walk each chain root through [memo], filter by [evid] the
    trees of rows without an event id, and charge the return hop. *)

(** {1 Stores} *)

type ('c, 's) t
(** A store over a cluster: scheme-wide state ['c] and per-node state ['s]. *)

and ('c, 's) policy = {
  slug : string;  (** blob magics are [dpc-<slug>-v1], [-node-v1], [-delta-v1] *)
  title : string;  (** the scheme's name in [Corrupt] messages *)
  article : string;  (** "a" or "an", for "not an ExSPAN checkpoint" *)
  fresh : unit -> 's;
  parts : 's -> part list;  (** node state in blob order *)
  prov : 's -> Rows.prov_row table;  (** where queries start *)
  layout : ('c -> bool) option;  (** a flag written after every magic *)
  trailer : ('c -> Dpc_util.Serialize.writer -> unit) * ('c -> Dpc_util.Serialize.reader -> unit);
      (** scheme-wide state at the end of the cluster checkpoint *)
  hook : ('c, 's) t -> Dpc_engine.Prov_hook.t;
  walk :
    ('c, 's) t ->
    acct ->
    output:Dpc_ndlog.Tuple.t ->
    evid:Dpc_util.Sha1.t option ->
    int * Dpc_util.Sha1.t ->
    Prov_tree.t list;
      (** the trees rooted at one chain reference of a [prov] row *)
  dump : ('c, 's) t -> (string * string list * string list list) list;
}

val no_trailer :
  ('c -> Dpc_util.Serialize.writer -> unit) * ('c -> Dpc_util.Serialize.reader -> unit)

val create :
  ('c, 's) policy ->
  conf:'c ->
  delp:Dpc_ndlog.Delp.t ->
  env:Dpc_engine.Env.t ->
  nodes:int ->
  ('c, 's) t
(** A fresh [nodes]-node cluster; per-node state hangs off each
    {!Dpc_engine.Node.t} under the key [store.<slug>]. *)

val restore :
  ('c, 's) policy ->
  create:(layout:bool option -> nodes:int -> ('c, 's) t) ->
  string ->
  ('c, 's) t
(** Rebuild a store from {!checkpoint} output; [create] receives the
    blob's layout flag and node count.
    @raise Dpc_util.Serialize.Corrupt on a wrong magic or trailing bytes. *)

val nodes : ('c, 's) t -> Dpc_engine.Node.t array
(** The cluster owning all per-node state; pass to [Runtime.create ~nodes]
    so the runtime shares it. *)

val state : ('c, 's) t -> int -> 's
val conf : ('c, 's) t -> 'c
val delp : ('c, 's) t -> Dpc_ndlog.Delp.t
val env : ('c, 's) t -> Dpc_engine.Env.t

val plan_named : ('c, 's) t -> string -> Dpc_engine.Eval.plan
(** The program's rule of that name, compiled once at {!create}.
    @raise Broken for an unknown rule. *)

val tracking : ('c, 's) t -> bool
(** Whether dirty tracking is on (see {!set_track_dirty}). *)

val add : ('c, 's) t -> node:int -> ('s -> 'r table) -> 'r -> unit
(** Insert a row into one of the node's tables. A new row bumps the
    node's write generation, joins the dirty set when tracking is on, and
    ticks [store.prov_rows] or [store.rule_exec_rows]. *)

val put :
  ('c, 's) t -> node:int -> ('s -> side) -> key:Dpc_util.Sha1.t -> Dpc_ndlog.Tuple.t -> unit
(** Insert a tuple into one of the node's side stores, first write wins;
    a new entry bumps the generation and joins the dirty set. *)

val table_rows : 'r table -> 'r list
(** Every row of a table, in no particular order. *)

val hook : ('c, 's) t -> Dpc_engine.Prov_hook.t
val dump : ('c, 's) t -> (string * string list * string list list) list

val set_degraded_sink : ('c, 's) t -> (int -> unit) -> unit
(** Re-route the degraded-query tick: [f querier] runs instead of the
    default increment of [crash.queries_degraded] on the querier's
    volatile registry. *)

val set_query_cache : ('c, 's) t -> Query_cache.t option -> unit
(** Attach (or detach, with [None]) the shared memoization cache.
    Attaching registers per-node crash-invalidation hooks
    ({!Dpc_engine.Node.on_reset}) once. *)

val query_cache : ('c, 's) t -> Query_cache.t option

val invalidate_cache : ('c, 's) t -> int -> unit
(** Drop the memoized reconstructions that read a node (a §5.5 [sig]
    delivery changed its slow world). *)

val query :
  ('c, 's) t ->
  cost:Query_cost.t ->
  routing:Dpc_net.Routing.t ->
  ?evid:Dpc_util.Sha1.t ->
  ?up:(int -> bool) ->
  Dpc_ndlog.Tuple.t ->
  Query_result.t
(** {!answer} over the querier's [prov] table, each chain root memoized in
    the attached cache keyed by the output (and the row's event id), and
    walked by the scheme. *)

val node_storage : ('c, 's) t -> int -> Rows.storage
val total_storage : ('c, 's) t -> Rows.storage

(** {1 Checkpoints} *)

val checkpoint : ('c, 's) t -> string
(** The whole store: every node's tables, then each side store across the
    cluster, then the scheme's trailer. *)

val checkpoint_node : ('c, 's) t -> int -> string
(** One node's parts; seals its dirty sets. *)

val digest_node : ('c, 's) t -> int -> string
(** SHA-1 (hex) of the node's canonical {!checkpoint_node} blob, without
    sealing dirty tracking. *)

val restore_node : ('c, 's) t -> int -> string -> unit
(** Reload one node's parts after a {!Dpc_engine.Node.reset}.
    @raise Dpc_util.Serialize.Corrupt on a wrong magic, a layout
    mismatch, or trailing bytes. *)

val set_track_dirty : ('c, 's) t -> bool -> unit

val checkpoint_delta : ('c, 's) t -> int -> string
(** One node's changes since its last cut; seals its dirty sets. *)

val apply_delta : ('c, 's) t -> int -> string -> unit
(** Replay a {!checkpoint_delta} blob on top of the node's state.
    @raise Dpc_util.Serialize.Corrupt as {!restore_node}. *)
