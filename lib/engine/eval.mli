(** Evaluation of a single DELP rule against an event tuple.

    Every rule is compiled once, by {!plan}, into a slot program: each
    variable gets an integer slot, each atom argument becomes a bind,
    check or constant op, each condition expression a tree over slots,
    and each condition atom an index probe on the positions bound before
    it. One plan serves both uses of a rule:

    - {!fire_planned} is the runtime join: unify the event atom with the
      arriving event tuple, join the slow-changing condition atoms against
      the local database, evaluate comparison atoms and assignments, and
      instantiate the head. One result per satisfying combination of
      slow-changing tuples.
    - {!fire_with_slow} is the symbolic re-derivation used at query time
      (§4 step 2): instead of joining the database — whose slow-changing
      tables may have changed since — it binds the condition atoms to the
      recorded slow tuples and recomputes the head.

    {!fire} and {!match_atom} are the naive evaluator, kept only as the
    test oracle the plans are checked against. *)

exception Eval_error of string
(** Type errors, unknown functions, division by zero. Evaluation is only
    partial on ill-typed programs; DELP validation does not type-check. *)

type plan
(** A compiled rule. *)

val plan : Dpc_ndlog.Ast.rule -> plan

val plan_rule : plan -> Dpc_ndlog.Ast.rule

val fire_planned :
  env:Env.t ->
  db:Db.t ->
  plan:plan ->
  event:Dpc_ndlog.Tuple.t ->
  (Dpc_ndlog.Tuple.t * Dpc_ndlog.Tuple.t list) list
(** All (head, slow tuples used) derivations of the planned rule
    triggered by [event]; empty if the event does not match or no join
    succeeds. Slow tuples are listed in condition-atom order. Each
    condition atom probes an exact {!Db.lookup} bucket (or, with no bound
    position, the unsorted relation) and results follow that candidate
    order. The derivations are those of {!fire} as a multiset, and it
    raises {!Eval_error} with {!fire}'s message under {!fire}'s
    conditions. *)

val fire_with_slow :
  env:Env.t ->
  plan:plan ->
  event:Dpc_ndlog.Tuple.t ->
  slow:Dpc_ndlog.Tuple.t list ->
  Dpc_ndlog.Tuple.t option
(** Re-derive the head from the event and the recorded slow tuples (one per
    condition atom, in order); [None] if they no longer unify or a
    comparison fails.
    @raise Eval_error if the event matches but the number of slow tuples
    is not the number of condition atoms. *)

(** {1 The oracle} *)

type binding = (string * Dpc_ndlog.Value.t) list

val match_atom :
  Dpc_ndlog.Ast.atom -> Dpc_ndlog.Tuple.t -> binding -> binding option
(** Unify an atom against a ground tuple, extending the binding; [None] on
    relation/arity/value mismatch. *)

val fire :
  env:Env.t ->
  db:Db.t ->
  rule:Dpc_ndlog.Ast.rule ->
  event:Dpc_ndlog.Tuple.t ->
  (Dpc_ndlog.Tuple.t * Dpc_ndlog.Tuple.t list) list
(** The naive join: name-keyed bindings, every condition relation scanned
    in sorted order. Same derivations as {!fire_planned}; no production
    path runs it. *)
