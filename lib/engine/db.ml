open Dpc_ndlog

(* Per-relation state: the primary table keyed by canonical string, an
   incrementally-maintained serialized-byte counter, and any secondary
   indexes built so far. An index maps a key — the tuple's values at
   [positions], compared structurally with [Value.equal] — to the bucket
   of tuples sharing those values; an insert goes to the front. *)
module Key = struct
  type t = Value.t list

  let equal = List.equal Value.equal

  (* Equality, not the hash, keeps [Int 5], [Addr 5], [Str "5"] and the
     [Bool]s apart as keys. [Addr] is offset only so that an int and an
     address of the same number do not share a hash chain. *)
  let hash_value = function
    | Value.Int i -> i
    | Value.Addr a -> (a * 7) + 1
    | Value.Bool b -> if b then 2 else 3
    | Value.Str s -> Hashtbl.hash s

  let hash key =
    let h = List.fold_left (fun h v -> (h * 65599) + hash_value v) 17 key in
    (h lxor (h lsr 29)) land max_int
end

module Index = Hashtbl.Make (Key)

type index = Tuple.t list ref Index.t

type rel_state = {
  tuples : (string, Tuple.t) Hashtbl.t;
  mutable bytes : int;
  mutable indexes : (int list * index) list;
}

type t = {
  tables : (string, rel_state) Hashtbl.t;
  (* Dirty op log for delta snapshots: every effective insert/remove
     since the last cut, NEWEST FIRST ([true] = insert). Chronological
     order matters — a tuple removed and re-added must end up present —
     so this is a log, not a pair of sets. *)
  mutable track_dirty : bool;
  mutable dirty : (bool * Tuple.t) list;
}

let create () = { tables = Hashtbl.create 8; track_dirty = false; dirty = [] }

let set_dirty_tracking t b = t.track_dirty <- b

let debug_recount = ref false
let set_debug_recount b = debug_recount := b

let rel_state t rel =
  match Hashtbl.find_opt t.tables rel with
  | Some rs -> rs
  | None ->
      let rs = { tuples = Hashtbl.create 16; bytes = 0; indexes = [] } in
      Hashtbl.add t.tables rel rs;
      rs

(* [None] when the tuple is too short to have every position: it can
   match no atom that keys on them, so it sits in no bucket. *)
let key_of_tuple tuple positions =
  let args = Tuple.args tuple in
  if List.exists (fun i -> i >= Array.length args) positions then None
  else Some (List.map (fun i -> args.(i)) positions)

let bucket_add (idx : index) tuple positions =
  match key_of_tuple tuple positions with
  | None -> ()
  | Some key -> (
      match Index.find_opt idx key with
      | Some bucket -> bucket := tuple :: !bucket
      | None -> Index.add idx key (ref [ tuple ]))

let bucket_remove (idx : index) tuple positions =
  match key_of_tuple tuple positions with
  | None -> ()
  | Some key -> (
      match Index.find_opt idx key with
      | None -> ()
      | Some bucket -> (
          bucket := List.filter (fun u -> not (Tuple.equal u tuple)) !bucket;
          match !bucket with [] -> Index.remove idx key | _ :: _ -> ()))

let insert t tuple =
  let rs = rel_state t (Tuple.rel tuple) in
  let ck = Tuple.canonical tuple in
  if Hashtbl.mem rs.tuples ck then false
  else begin
    Hashtbl.add rs.tuples ck tuple;
    rs.bytes <- rs.bytes + Tuple.serialized_size tuple;
    List.iter (fun (ps, idx) -> bucket_add idx tuple ps) rs.indexes;
    if t.track_dirty then t.dirty <- (true, tuple) :: t.dirty;
    true
  end

let remove t tuple =
  match Hashtbl.find_opt t.tables (Tuple.rel tuple) with
  | None -> false
  | Some rs ->
      let ck = Tuple.canonical tuple in
      if Hashtbl.mem rs.tuples ck then begin
        Hashtbl.remove rs.tuples ck;
        rs.bytes <- rs.bytes - Tuple.serialized_size tuple;
        List.iter (fun (ps, idx) -> bucket_remove idx tuple ps) rs.indexes;
        if t.track_dirty then t.dirty <- (false, tuple) :: t.dirty;
        true
      end
      else false

let mem t tuple =
  match Hashtbl.find_opt t.tables (Tuple.rel tuple) with
  | None -> false
  | Some rs -> Hashtbl.mem rs.tuples (Tuple.canonical tuple)

let iter t rel f =
  match Hashtbl.find_opt t.tables rel with
  | None -> ()
  | Some rs -> Hashtbl.iter (fun _ tuple -> f tuple) rs.tuples

let all t rel =
  match Hashtbl.find_opt t.tables rel with
  | None -> []
  | Some rs -> Hashtbl.fold (fun _ tuple acc -> tuple :: acc) rs.tuples []

let scan t rel = List.sort Tuple.compare (all t rel)

let rec find_index positions = function
  | [] -> None
  | (ps, idx) :: rest ->
      if List.equal Int.equal ps positions then Some idx else find_index positions rest

let lookup t ~rel ~positions ~key =
  match Hashtbl.find_opt t.tables rel with
  | None -> []
  | Some rs -> (
      let idx =
        match find_index positions rs.indexes with
        | Some idx -> idx
        | None ->
            (* Built lazily on the first keyed lookup, then kept current by
               insert/remove. *)
            let idx = Index.create (max 16 (Hashtbl.length rs.tuples)) in
            Hashtbl.iter (fun _ tuple -> bucket_add idx tuple positions) rs.tuples;
            rs.indexes <- (positions, idx) :: rs.indexes;
            idx
      in
      match Index.find_opt idx key with Some bucket -> !bucket | None -> [])

let relations t =
  Hashtbl.fold
    (fun rel rs acc -> if Hashtbl.length rs.tuples > 0 then rel :: acc else acc)
    t.tables []
  |> List.sort String.compare

let cardinality t rel =
  match Hashtbl.find_opt t.tables rel with
  | None -> 0
  | Some rs -> Hashtbl.length rs.tuples

let total_tuples t = Hashtbl.fold (fun _ rs acc -> acc + Hashtbl.length rs.tuples) t.tables 0

let clear t =
  Hashtbl.reset t.tables;
  t.dirty <- []

(* The canonical serialization: relations sorted by name, tuples in scan
   order — byte-stable for a given store state. [snapshot] SEALS a cut
   around it (the dirty log restarts, so the next [snapshot_delta]
   carries exactly the changes since here); [canonical] is the pure
   observation the digest oracles take between cuts. *)
let canonical t =
  let w = Dpc_util.Serialize.writer () in
  Dpc_util.Serialize.write_list w
    (fun rel ->
      Dpc_util.Serialize.write_string w rel;
      Dpc_util.Serialize.write_list w (Tuple.serialize w) (scan t rel))
    (relations t);
  Dpc_util.Serialize.contents w

let snapshot t =
  let blob = canonical t in
  t.dirty <- [];
  blob

let snapshot_delta t =
  let w = Dpc_util.Serialize.writer () in
  Dpc_util.Serialize.write_list w
    (fun (add, tuple) ->
      Dpc_util.Serialize.write_bool w add;
      Tuple.serialize w tuple)
    (List.rev t.dirty);
  t.dirty <- [];
  Dpc_util.Serialize.contents w

(* Restores clear the dirty log: the loaded state IS the cut, not a
   change since it. *)
let load t blob =
  let r = Dpc_util.Serialize.reader blob in
  ignore
    (Dpc_util.Serialize.read_list r (fun () ->
       let _rel = Dpc_util.Serialize.read_string r in
       ignore
         (Dpc_util.Serialize.read_list r (fun () -> ignore (insert t (Tuple.deserialize r))))));
  t.dirty <- []

let apply_delta t blob =
  let r = Dpc_util.Serialize.reader blob in
  ignore
    (Dpc_util.Serialize.read_list r (fun () ->
       let add = Dpc_util.Serialize.read_bool r in
       let tuple = Tuple.deserialize r in
       if add then ignore (insert t tuple) else ignore (remove t tuple)));
  t.dirty <- []

let recount_bytes t =
  let w = Dpc_util.Serialize.writer () in
  List.iter
    (fun rel -> List.iter (fun tuple -> Tuple.serialize w tuple) (scan t rel))
    (relations t);
  Dpc_util.Serialize.size w

let size_bytes t =
  let n = Hashtbl.fold (fun _ rs acc -> acc + rs.bytes) t.tables 0 in
  if !debug_recount then begin
    let full = recount_bytes t in
    if n <> full then
      invalid_arg
        (Printf.sprintf "Db.size_bytes: incremental counter %d <> recount %d" n full)
  end;
  n
