(** A node-local relational store with set semantics (the [DB_i] of the
    system model, §3): slow-changing base tables plus derived tuples.

    Each relation carries secondary hash indexes keyed on attribute
    positions (chosen at rule-compile time by {!Eval.plan}). Indexes are
    built lazily on the first {!lookup} and maintained incrementally by
    {!insert}/{!remove}, as is the per-relation serialized-byte counter
    behind {!size_bytes}. *)

type t

val create : unit -> t

val insert : t -> Dpc_ndlog.Tuple.t -> bool
(** [true] if the tuple was new. *)

val remove : t -> Dpc_ndlog.Tuple.t -> bool
(** [true] if the tuple was present. *)

val mem : t -> Dpc_ndlog.Tuple.t -> bool

val iter : t -> string -> (Dpc_ndlog.Tuple.t -> unit) -> unit
(** Visit every tuple of a relation, in unspecified order. *)

val all : t -> string -> Dpc_ndlog.Tuple.t list
(** All tuples of a relation, in unspecified order (no sort). *)

val scan : t -> string -> Dpc_ndlog.Tuple.t list
(** All tuples of a relation, sorted — deterministic but O(n log n); use
    {!iter}/{!all}/{!lookup} where order is not observable. *)

val lookup :
  t -> rel:string -> positions:int list -> key:Dpc_ndlog.Value.t list -> Dpc_ndlog.Tuple.t list
(** The tuples of [rel] whose attributes at [positions] equal [key]
    (element-wise with {!Dpc_ndlog.Value.equal}, same order). Served from
    a secondary hash index keyed by the values themselves: built on first
    use for that positions list, updated on insert/remove thereafter.
    Bucket order is deterministic: an insert after the build goes to the
    front. [positions] must be non-empty; a tuple too short to have every
    position is in no bucket. *)

val clear : t -> unit
(** Drop every relation, index, and byte counter — the store of a node
    whose memory just went away. *)

val snapshot : t -> string
(** Deterministic serialization of the whole store: relations sorted by
    name, tuples in {!scan} order. Seals a cut: the dirty log behind
    {!snapshot_delta} restarts here. *)

val canonical : t -> string
(** The same bytes as {!snapshot} WITHOUT sealing a cut — a pure
    observation for digest comparison, safe between delta cuts. *)

val load : t -> string -> unit
(** Insert every tuple of a {!snapshot} (set semantics: tuples already
    present are kept once). Does not clear first; clears the dirty log
    (the loaded state is a cut, not a change since one).
    @raise Dpc_util.Serialize.Corrupt on a malformed blob. *)

val set_dirty_tracking : t -> bool -> unit
(** Record every effective insert/remove (in order) so {!snapshot_delta}
    can serialize just the changes since the last cut. Off by default. *)

val snapshot_delta : t -> string
(** The insert/remove log since the last cut ({!snapshot},
    {!snapshot_delta}, {!load}, or {!apply_delta}), chronological —
    O(changes), not O(store). Seals a cut. Meaningful only with
    {!set_dirty_tracking} on. *)

val apply_delta : t -> string -> unit
(** Replay one {!snapshot_delta} blob: apply a base {!load} first, then
    each delta oldest to newest. Clears the dirty log.
    @raise Dpc_util.Serialize.Corrupt on a malformed blob. *)

val relations : t -> string list
val cardinality : t -> string -> int
val total_tuples : t -> int

val size_bytes : t -> int
(** Serialized size of the whole store, maintained incrementally (O(1),
    not O(store)). When {!set_debug_recount} is on, every call verifies
    the counter against {!recount_bytes} and raises on divergence. *)

val recount_bytes : t -> int
(** Slow path: re-serialize everything and measure. Equals {!size_bytes}
    by construction; retained as the oracle for the debug assertion and
    tests. *)

val set_debug_recount : bool -> unit
(** Global toggle for the {!size_bytes} self-check (off by default; keep
    it off on hot paths). *)
