module S = Dpc_util.Serialize

let hold_cap = 1024

type tx = { tx_base : int; mutable next : int }

let tx ~base = { tx_base = base; next = base }
let next_seq tx = tx.next

let assign tx =
  let seq = tx.next in
  tx.next <- seq + 1;
  seq

let raise_next_seq tx v =
  v > tx.next
  && begin
       tx.next <- v;
       true
     end

let reset_tx tx = tx.next <- tx.tx_base

type 'a rx = { rx_base : int; mutable expected : int; held : (int, 'a) Hashtbl.t }

let rx ~base = { rx_base = base; expected = base; held = Hashtbl.create 8 }
let expected rx = rx.expected
let covers rx seq = seq < rx.expected

type verdict = Delivered | Duplicate | Held | Overflow

let accept rx ~seq v ~advance ~deliver =
  if seq < rx.expected then Duplicate
  else if seq > rx.expected then
    if Hashtbl.mem rx.held seq then Duplicate
    else if Hashtbl.length rx.held >= hold_cap then Overflow
    else begin
      Hashtbl.replace rx.held seq v;
      Held
    end
  else begin
    (* A copy held at exactly the watermark survives a [raise_expected]
       to its own sequence; this arrival supersedes it. *)
    Hashtbl.remove rx.held seq;
    let rec run v =
      rx.expected <- rx.expected + 1;
      advance rx.expected;
      deliver v;
      match Hashtbl.find_opt rx.held rx.expected with
      | None -> ()
      | Some v' ->
          Hashtbl.remove rx.held rx.expected;
          run v'
    in
    run v;
    Delivered
  end

let raise_expected rx v =
  v > rx.expected
  && begin
       rx.expected <- v;
       Hashtbl.filter_map_inplace (fun s x -> if s < v then None else Some x) rx.held;
       true
     end

let reset_rx rx =
  rx.expected <- rx.rx_base;
  Hashtbl.reset rx.held

type format = Rel_v1 | Chan_v1

let magic = function Rel_v1 -> "dpc-rel-v1" | Chan_v1 -> "dpc-chan-v1"

(* The live rows sorted by peer. Callers that already pass exactly that
   (a matrix walked in peer order) pay no copy: a cut is taken every few
   operations. *)
let rows ~live ~peer l =
  let l = if List.for_all live l then l else List.filter live l in
  let rec sorted = function a :: (b :: _ as tl) -> peer a < peer b && sorted tl | _ -> true in
  if sorted l then l else List.stable_sort (fun a b -> compare (peer a) (peer b)) l

let encode format ~sends ~recvs =
  let sends =
    rows sends
      ~live:(fun (_, tx, acked) -> tx.next > tx.tx_base || acked > 0)
      ~peer:(fun (p, _, _) -> p)
  in
  let recvs = rows recvs ~live:(fun (_, rx) -> rx.expected > rx.rx_base) ~peer:fst in
  S.with_scratch (fun w ->
      S.write_string w (magic format);
      S.write_list w
        (fun (peer, tx, acked) ->
          S.write_varint w peer;
          S.write_varint w tx.next;
          if format = Chan_v1 then S.write_varint w acked)
        sends;
      S.write_list w
        (fun (peer, rx) ->
          S.write_varint w peer;
          S.write_varint w rx.expected)
        recvs)

let decode format blob =
  let r = S.reader blob in
  let m = S.read_string r in
  if m <> magic format then
    raise (S.Corrupt (Printf.sprintf "channel snapshot: bad magic %S, want %S" m (magic format)));
  let sends =
    S.read_list r (fun () ->
        let peer = S.read_varint r in
        let next = S.read_varint r in
        let acked = if format = Chan_v1 then S.read_varint r else 0 in
        (peer, next, acked))
  in
  let recvs =
    S.read_list r (fun () ->
        let peer = S.read_varint r in
        let expected = S.read_varint r in
        (peer, expected))
  in
  (sends, recvs)

type event =
  | Next_seq of { src : int; dst : int; seq : int }
  | Expected of { src : int; dst : int; seq : int }

type handle = {
  snapshot : node:int -> string option;
  restore : node:int -> string -> unit;
  raise_next_seq : src:int -> dst:int -> int -> unit;
  raise_expected : src:int -> dst:int -> int -> unit;
  forget : node:int -> unit;
  observe : (event -> unit) -> unit;
}

let stateless =
  {
    snapshot = (fun ~node:_ -> None);
    restore = (fun ~node:_ _ -> ());
    raise_next_seq = (fun ~src:_ ~dst:_ _ -> ());
    raise_expected = (fun ~src:_ ~dst:_ _ -> ());
    forget = (fun ~node:_ -> ());
    observe = ignore;
  }
