open Dpc_ndlog

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

let arith op a b =
  match op, a, b with
  | Ast.Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Ast.Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Ast.Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Ast.Div, Value.Int _, Value.Int 0 -> fail "division by zero"
  | Ast.Div, Value.Int x, Value.Int y -> Value.Int (x / y)
  | Ast.Mod, Value.Int _, Value.Int 0 -> fail "modulo by zero"
  | Ast.Mod, Value.Int x, Value.Int y -> Value.Int (x mod y)
  | Ast.Add, Value.Str x, Value.Str y -> Value.Str (x ^ y)
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), _, _ ->
      fail "arithmetic on non-numeric values (%s, %s)" (Value.to_string a)
        (Value.to_string b)

let compare_values op a b =
  let ordered cmp =
    match a, b with
    | Value.Int x, Value.Int y -> cmp (compare x y) 0
    | Value.Str x, Value.Str y -> cmp (String.compare x y) 0
    | (Value.Int _ | Value.Str _ | Value.Bool _ | Value.Addr _), _ ->
        fail "ordering comparison on %s and %s" (Value.to_string a) (Value.to_string b)
  in
  match op with
  | Ast.Eq -> Value.equal a b
  | Ast.Neq -> not (Value.equal a b)
  | Ast.Lt -> ordered ( < )
  | Ast.Leq -> ordered ( <= )
  | Ast.Gt -> ordered ( > )
  | Ast.Geq -> ordered ( >= )

(* ----------------------------------------------------------------- *)
(* The naive evaluator: the test oracle. It walks the rule's AST with a
   name-keyed binding list and scans each condition relation in sorted
   order. No production path runs it; the compiled plans below must
   agree with it on every derivation and every error. *)

type binding = (string * Value.t) list

let match_atom (a : Ast.atom) tuple binding =
  if not (String.equal a.rel (Tuple.rel tuple)) then None
  else if List.length a.args <> Tuple.arity tuple then None
  else begin
    let rec go binding i = function
      | [] -> Some binding
      | Ast.Const c :: rest ->
          if Value.equal c (Tuple.arg tuple i) then go binding (i + 1) rest else None
      | Ast.Var v :: rest -> begin
          let actual = Tuple.arg tuple i in
          match List.assoc_opt v binding with
          | Some bound -> if Value.equal bound actual then go binding (i + 1) rest else None
          | None -> go ((v, actual) :: binding) (i + 1) rest
        end
    in
    go binding 0 a.args
  end

let rec eval_expr env binding = function
  | Ast.E_const c -> c
  | Ast.E_var v -> begin
      match List.assoc_opt v binding with
      | Some value -> value
      | None -> fail "unbound variable %s" v
    end
  | Ast.E_binop (op, a, b) -> arith op (eval_expr env binding a) (eval_expr env binding b)
  | Ast.E_call (f, args) -> begin
      match Env.lookup env f with
      | None -> fail "unknown function %s" f
      | Some fn -> fn (List.map (eval_expr env binding) args)
    end

let instantiate (a : Ast.atom) binding =
  let values =
    List.map
      (function
        | Ast.Const c -> c
        | Ast.Var v -> begin
            match List.assoc_opt v binding with
            | Some value -> value
            | None -> fail "unbound head variable %s" v
          end)
      a.args
  in
  Tuple.make a.rel values

(* Process conditions left to right, branching on slow-atom joins. *)
let run_conditions env db conds binding =
  let rec go binding used = function
    | [] -> [ (binding, List.rev used) ]
    | Ast.C_atom a :: rest ->
        List.concat_map
          (fun tuple ->
            match match_atom a tuple binding with
            | None -> []
            | Some binding -> go binding (tuple :: used) rest)
          (Db.scan db a.rel)
    | Ast.C_cmp (op, lhs, rhs) :: rest ->
        if compare_values op (eval_expr env binding lhs) (eval_expr env binding rhs) then
          go binding used rest
        else []
    | Ast.C_assign (x, e) :: rest ->
        let value = eval_expr env binding e in
        begin
          match List.assoc_opt x binding with
          | Some bound -> if Value.equal bound value then go binding used rest else []
          | None -> go ((x, value) :: binding) used rest
        end
  in
  go binding [] conds

let fire ~env ~db ~(rule : Ast.rule) ~event =
  match match_atom rule.event event [] with
  | None -> []
  | Some binding ->
      run_conditions env db rule.conds binding
      |> List.map (fun (binding, slow) -> (instantiate rule.head binding, slow))

(* ----------------------------------------------------------------- *)
(* Compiled slot plans. Every rule variable gets an integer slot in the
   order the event atom and then the conditions first bind it; a firing
   fills one [Value.t array] instead of growing a binding list. Slots
   are bound in that fixed order, so backtracking to the next candidate
   of a join simply overwrites them. *)

(* One atom argument: bind a fresh slot, check a bound one, or match a
   constant. *)
type arg = Bind of int | Check of int | Const of Value.t

type term = Slot of int | Lit of Value.t

(* A condition expression over slots. A variable no earlier atom or
   assignment binds compiles to [X_unbound], which raises the naive
   evaluator's error when — and only when — it is evaluated. *)
type expr =
  | X_const of Value.t
  | X_slot of int
  | X_unbound of string
  | X_binop of Ast.binop * expr * expr
  | X_call of string * expr list

type atom = { rel : string; args : arg array }

(* A condition atom joins through a {!Db.lookup} probe on the positions
   holding constants or variables bound before it, or through the whole
   relation when it has none. *)
type join = { atom : atom; key : (int list * term array) option }

type cond =
  | Cmp of Ast.cmp * expr * expr
  | Assign of int * expr  (* first binding of the slot *)
  | Recheck of int * expr  (* assignment to a bound variable: an equality test *)

type step = Join of join | Cond of cond

type plan = {
  rule : Ast.rule;
  slots : int;
  event : atom;
  steps : step array;
  joins : int;
  head : (term array, string) result;  (* [Error v]: head variable [v] is never bound *)
}

let plan_rule p = p.rule

let plan (rule : Ast.rule) =
  let slot_of = Hashtbl.create 16 in
  let bind v =
    let s = Hashtbl.length slot_of in
    Hashtbl.replace slot_of v s;
    s
  in
  let bound v = Hashtbl.find_opt slot_of v in
  (* [Array.map] visits left to right, which the slot numbering relies
     on: a variable repeated within one atom is bound at its first
     position and checked at the later ones. *)
  let atom (a : Ast.atom) =
    let arg = function
      | Ast.Const c -> Const c
      | Ast.Var v -> ( match bound v with Some s -> Check s | None -> Bind (bind v))
    in
    { rel = a.rel; args = Array.map arg (Array.of_list a.args) }
  in
  let rec expr = function
    | Ast.E_const c -> X_const c
    | Ast.E_var v -> ( match bound v with Some s -> X_slot s | None -> X_unbound v)
    | Ast.E_binop (op, a, b) -> X_binop (op, expr a, expr b)
    | Ast.E_call (f, args) -> X_call (f, List.map expr args)
  in
  let event = atom rule.event in
  let step = function
    | Ast.C_atom a ->
        let keyed =
          List.concat
            (List.mapi
               (fun i -> function
                 | Ast.Const c -> [ (i, Lit c) ]
                 | Ast.Var v -> ( match bound v with Some s -> [ (i, Slot s) ] | None -> []))
               a.args)
        in
        let key =
          match keyed with
          | [] -> None
          | _ :: _ -> Some (List.map fst keyed, Array.of_list (List.map snd keyed))
        in
        Join { atom = atom a; key }
    | Ast.C_cmp (op, lhs, rhs) -> Cond (Cmp (op, expr lhs, expr rhs))
    | Ast.C_assign (x, e) -> (
        let e = expr e in
        match bound x with Some s -> Cond (Recheck (s, e)) | None -> Cond (Assign (bind x, e)))
  in
  let steps = Array.map step (Array.of_list rule.conds) in
  let head =
    match
      List.find_map
        (function Ast.Var v when bound v = None -> Some v | Ast.Var _ | Ast.Const _ -> None)
        rule.head.args
    with
    | Some v -> Error v
    | None ->
        Ok
          (Array.of_list
             (List.map
                (function
                  | Ast.Const c -> Lit c
                  | Ast.Var v -> Slot (Hashtbl.find slot_of v))
                rule.head.args))
  in
  {
    rule;
    slots = Hashtbl.length slot_of;
    event;
    steps;
    joins = Array.fold_left (fun n -> function Join _ -> n + 1 | Cond _ -> n) 0 steps;
    head;
  }

let unify atom slots tuple =
  let values = Tuple.args tuple in
  let args = atom.args in
  let n = Array.length args in
  let rec go i =
    i = n
    ||
    match args.(i) with
    | Bind s ->
        slots.(s) <- values.(i);
        go (i + 1)
    | Check s -> Value.equal slots.(s) values.(i) && go (i + 1)
    | Const c -> Value.equal c values.(i) && go (i + 1)
  in
  String.equal atom.rel (Tuple.rel tuple) && Array.length values = n && go 0

let term slots = function Slot s -> slots.(s) | Lit c -> c

(* The oracle's evaluation order, so an expression with two failing
   operands raises the same error. *)
let rec eval env slots = function
  | X_const c -> c
  | X_slot s -> slots.(s)
  | X_unbound v -> fail "unbound variable %s" v
  | X_binop (op, a, b) -> arith op (eval env slots a) (eval env slots b)
  | X_call (f, args) -> begin
      match Env.lookup env f with
      | None -> fail "unknown function %s" f
      | Some fn -> fn (List.map (eval env slots) args)
    end

let passes env slots = function
  | Cmp (op, lhs, rhs) -> compare_values op (eval env slots lhs) (eval env slots rhs)
  | Assign (s, e) ->
      slots.(s) <- eval env slots e;
      true
  | Recheck (s, e) ->
      let value = eval env slots e in
      Value.equal slots.(s) value

let head_values plan slots =
  match plan.head with Ok terms -> Array.map (term slots) terms | Error _ -> [||]

(* Like the oracle, an unbound head variable is reported only once the
   join has produced a derivation. *)
let head_tuple plan values =
  match plan.head with
  | Ok _ -> Tuple.of_array plan.rule.head.rel values
  | Error v -> fail "unbound head variable %s" v

let rec key_values slots parts i =
  if i = Array.length parts then [] else term slots parts.(i) :: key_values slots parts (i + 1)

let candidates db slots join =
  match join.key with
  | None -> Db.all db join.atom.rel
  | Some (positions, parts) ->
      Db.lookup db ~rel:join.atom.rel ~positions ~key:(key_values slots parts 0)

let fire_planned ~env ~db ~plan ~event =
  let slots = Array.make plan.slots (Value.Int 0) in
  if not (unify plan.event slots event) then []
  else begin
    let found = ref [] in
    let n = Array.length plan.steps in
    let rec go i used =
      if i = n then found := (head_values plan slots, List.rev used) :: !found
      else
        match plan.steps.(i) with
        | Cond c -> if passes env slots c then go (i + 1) used
        | Join j ->
            List.iter
              (fun tuple -> if unify j.atom slots tuple then go (i + 1) (tuple :: used))
              (candidates db slots j)
    in
    go 0 [];
    (* Heads are built after the whole join, as the oracle does. *)
    List.rev_map (fun (values, used) -> (head_tuple plan values, used)) !found
  end

let fire_with_slow ~env ~plan ~event ~slow =
  let slots = Array.make plan.slots (Value.Int 0) in
  if not (unify plan.event slots event) then None
  else begin
    let given = List.length slow in
    if given <> plan.joins then
      fail "fire_with_slow: rule %s expects %d slow tuples, got %d" plan.rule.name plan.joins
        given;
    let n = Array.length plan.steps in
    let rec go i slow =
      if i = n then Some (head_tuple plan (head_values plan slots))
      else
        match plan.steps.(i), slow with
        | Cond c, _ -> if passes env slots c then go (i + 1) slow else None
        | Join j, tuple :: rest -> if unify j.atom slots tuple then go (i + 1) rest else None
        | Join _, [] -> None
    in
    go 0 slow
  end
