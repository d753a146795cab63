module S = Dpc_util.Serialize
module File_io = Dpc_util.File_io

(* The persist-before-send ledger: a [Send] record reaches this file
   before the frame's first transmission, so an outgoing message can
   never be lost to a sender crash — on restart the unacked tail is
   re-offered and the receiver's dedup window absorbs any overlap.
   [Ack] records let compaction drop delivered payloads; [Mark] records
   survive compaction as the per-channel sequence summary (without them
   a compacted ledger would forget how many sends ever existed, and
   recovery could re-issue a used sequence number). *)

type chan = {
  mutable recorded : int;  (* highest sequence ever written for this dst *)
  mutable acked : int;  (* highest cumulatively acknowledged sequence *)
  pending : (int, string) Hashtbl.t;  (* recorded, not yet acked *)
}

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  chans : (int, chan) Hashtbl.t;
  mutable bytes : int;
}

let magic = "dpc-outbox-v1"

let chan_of t dst =
  match Hashtbl.find_opt t.chans dst with
  | Some c -> c
  | None ->
      let c = { recorded = 0; acked = 0; pending = Hashtbl.create 8 } in
      Hashtbl.replace t.chans dst c;
      c

(* Lookups never create a channel, so compaction marks only channels
   that saw a record. *)
let lookup t dst f ~absent = match Hashtbl.find_opt t.chans dst with Some c -> f c | None -> absent

let apply_send t dst seq payload =
  let c = chan_of t dst in
  if seq > c.recorded then c.recorded <- seq;
  if seq > c.acked then Hashtbl.replace c.pending seq payload

(* Cumulative: retire [acked + 1 .. upto]. Nothing above [recorded] is
   pending, so a runaway ack costs no more than the recorded range. *)
let apply_ack t dst upto =
  let c = chan_of t dst in
  if upto > c.acked then begin
    for seq = c.acked + 1 to min upto c.recorded do
      Hashtbl.remove c.pending seq
    done;
    c.acked <- upto
  end

let apply_mark t dst recorded acked =
  let c = chan_of t dst in
  if recorded > c.recorded then c.recorded <- recorded;
  apply_ack t dst acked

let read_record t r =
  match S.read_varint r with
  | 0 ->
      let dst = S.read_varint r in
      let seq = S.read_varint r in
      let payload = S.read_string r in
      apply_send t dst seq payload
  | 1 ->
      let dst = S.read_varint r in
      let seq = S.read_varint r in
      apply_ack t dst seq
  | 2 ->
      let dst = S.read_varint r in
      let recorded = S.read_varint r in
      let acked = S.read_varint r in
      apply_mark t dst recorded acked
  | tag -> raise (S.Corrupt (Printf.sprintf "outbox: unknown record tag %d" tag))

let open_ ~dir =
  File_io.mkdir_p dir;
  let path = Filename.concat dir "outbox.log" in
  let t = { path; fd = Unix.stdin; chans = Hashtbl.create 8; bytes = 0 } in
  let existing = Sys.file_exists path in
  if existing then begin
    let contents = File_io.read_file path in
    if contents <> "" then begin
      let r = S.reader contents in
      (match S.read_string r with
      | m when m = magic -> ()
      | m -> raise (S.Corrupt (Printf.sprintf "outbox: bad magic %S in %s" m path))
      | exception S.Corrupt _ ->
          raise (S.Corrupt (Printf.sprintf "outbox: unreadable header in %s" path)));
      (* A kill can tear the last record mid-write; everything after the
         first undecodable byte was never acknowledged to anyone (the
         record had not finished persisting, so the frame never went
         out) and is safely dropped. *)
      (try
         while not (S.at_end r) do
           read_record t r
         done
       with S.Corrupt _ -> ());
      t.bytes <- String.length contents
    end
  end;
  t.fd <- Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
  if (not existing) || t.bytes = 0 then begin
    let header = S.with_scratch (fun w -> S.write_string w magic) in
    File_io.write_all t.fd header;
    t.bytes <- String.length header
  end;
  t

let append t blob =
  File_io.write_all t.fd blob;
  t.bytes <- t.bytes + String.length blob

let record_send t ~dst ~seq payload =
  apply_send t dst seq payload;
  append t
    (S.with_scratch (fun w ->
         S.write_varint w 0;
         S.write_varint w dst;
         S.write_varint w seq;
         S.write_string w payload))

let record_ack t ~dst ~seq =
  if seq > lookup t dst (fun c -> c.acked) ~absent:0 then begin
    apply_ack t dst seq;
    append t
      (S.with_scratch (fun w ->
           S.write_varint w 1;
           S.write_varint w dst;
           S.write_varint w seq))
  end

let iter_pending t ~dst f =
  lookup t dst ~absent:() (fun c ->
      for seq = c.acked + 1 to c.recorded do
        Option.iter (f seq) (Hashtbl.find_opt c.pending seq)
      done)

let pending t =
  Hashtbl.fold
    (fun dst c acc -> Hashtbl.fold (fun seq payload acc -> (dst, seq, payload) :: acc) c.pending acc)
    t.chans []
  |> List.sort compare

let has_pending t ~dst = lookup t dst (fun c -> Hashtbl.length c.pending > 0) ~absent:false

let unacked t = Hashtbl.fold (fun _ c acc -> acc + Hashtbl.length c.pending) t.chans 0
let next_seq t ~dst = lookup t dst (fun c -> c.recorded + 1) ~absent:1
let acked t ~dst = lookup t dst (fun c -> c.acked) ~absent:0
let size_bytes t = t.bytes

let compact t =
  let blob =
    S.with_scratch (fun w ->
        S.write_string w magic;
        let dsts = Hashtbl.fold (fun dst _ acc -> dst :: acc) t.chans [] |> List.sort compare in
        List.iter
          (fun dst ->
            let c = Hashtbl.find t.chans dst in
            S.write_varint w 2;
            S.write_varint w dst;
            S.write_varint w c.recorded;
            S.write_varint w c.acked;
            iter_pending t ~dst (fun seq payload ->
                S.write_varint w 0;
                S.write_varint w dst;
                S.write_varint w seq;
                S.write_string w payload))
          dsts)
  in
  Unix.close t.fd;
  File_io.write_file_atomic t.path blob;
  t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
  t.bytes <- String.length blob

let close t = try Unix.close t.fd with _ -> ()
