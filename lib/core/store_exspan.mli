(** ExSPAN-style uncompressed provenance maintenance (paper §2.2, Table 1):
    every rule execution stores a [ruleExec] row at the executing node, and
    every tuple — input event, intermediate events, slow-changing tuples,
    and the output — gets a [prov] row at its location (base tuples with a
    NULL rule reference). The comparison baseline for both optimizations.

    A {!Store} policy: checkpoints, dirty tracking, the query cache and
    storage accounting are the skeleton's. Its query (§2.2) follows [prov]
    and [ruleExec] rows from the queried tuple down to base tuples,
    reconstructing every derivation. *)

type node_state

type t = (unit, node_state) Store.t

val create : delp:Dpc_ndlog.Delp.t -> env:Dpc_engine.Env.t -> nodes:int -> t

val restore : delp:Dpc_ndlog.Delp.t -> env:Dpc_engine.Env.t -> string -> t
(** Rebuild a store from {!Store.checkpoint} output; queries against it
    behave identically. @raise Dpc_util.Serialize.Corrupt on malformed
    input. *)

val rid_of :
  rule_name:string -> node:int -> vids:Dpc_util.Sha1.t list -> Dpc_util.Sha1.t
(** The rule-execution id of Table 1: SHA-1 of the rule name, the node and
    the body vids. Basic (Table 2) reuses it, and so does the Advanced
    §5.4 node row over the slow vids alone. *)
