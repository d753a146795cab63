(* Real-process building blocks, unit-tested in one process: the
   dpc-wire-v1 frame codec (round-trips, incremental decoding, corruption
   detection), the durable outbox ledger (persist-before-send across
   simulated kill -9 reloads, torn tails, compaction), the control
   protocol codec, a live two-socket transport pair, and on-disk durable
   recovery digest equality. The full cross-process oracle — three dpcd
   daemons, a real kill -9, digests against the simulator — is `make
   procs` (bin/dpcd.ml cluster mode); these tests cover the pieces it is
   built from. *)

module Wire = Dpc_net.Wire
module Socket = Dpc_net.Socket
module Outbox = Dpc_net.Outbox

let check = Alcotest.check

let frame kind ~src ~dst ~seq payload : Wire.frame = { kind; src; dst; seq; payload }

let temp_dir prefix = Filename.temp_dir (prefix ^ "-") ""

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let drain decoder =
  let rec go acc =
    match Wire.Decoder.next decoder with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

let test_wire_roundtrip () =
  let frames =
    [
      frame Wire.Data ~src:0 ~dst:1 ~seq:1 "hello";
      frame Wire.Ack ~src:1 ~dst:0 ~seq:41 "";
      frame Wire.Hello ~src:2 ~dst:0 ~seq:0 "";
      frame Wire.Ctrl ~src:Wire.control_id ~dst:1 ~seq:7 (String.make 300 'x');
      frame Wire.Data ~src:0 ~dst:2 ~seq:max_int "payload with \x00 bytes \xff";
    ]
  in
  let d = Wire.Decoder.create () in
  List.iter (fun f -> Wire.Decoder.feed_string d (Wire.encode f)) frames;
  let got = drain d in
  check Alcotest.int "all frames decoded" (List.length frames) (List.length got);
  List.iter2
    (fun (a : Wire.frame) (b : Wire.frame) ->
      check Alcotest.bool "kind" true (a.kind = b.kind);
      check Alcotest.int "src" a.src b.src;
      check Alcotest.int "dst" a.dst b.dst;
      check Alcotest.int "seq" a.seq b.seq;
      check Alcotest.string "payload" a.payload b.payload)
    frames got

(* Feed the stream one byte at a time: a frame must appear exactly when
   its last byte lands, never earlier (no partial delivery). *)
let test_wire_incremental () =
  let f1 = frame Wire.Data ~src:0 ~dst:1 ~seq:5 "abc" in
  let f2 = frame Wire.Data ~src:0 ~dst:1 ~seq:6 "defg" in
  let bytes = Wire.encode f1 ^ Wire.encode f2 in
  let d = Wire.Decoder.create () in
  let boundary1 = String.length (Wire.encode f1) in
  let seen = ref 0 in
  String.iteri
    (fun i c ->
      Wire.Decoder.feed_string d (String.make 1 c);
      List.iter
        (fun (got : Wire.frame) ->
          incr seen;
          let expected_at = if !seen = 1 then boundary1 - 1 else String.length bytes - 1 in
          check Alcotest.int "frame completed exactly at its last byte" expected_at i;
          check Alcotest.string "payload" (if !seen = 1 then "abc" else "defg") got.payload)
        (drain d))
    bytes;
  check Alcotest.int "both frames arrived" 2 !seen

let expect_corrupt what bytes =
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed_string d bytes;
  match drain d with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: decoder accepted corrupt input" what

let test_wire_corruption () =
  let good = Wire.encode (frame Wire.Data ~src:0 ~dst:1 ~seq:3 "payload") in
  let patch i c = String.mapi (fun j x -> if j = i then c else x) good in
  expect_corrupt "bad magic" (patch 0 'X');
  expect_corrupt "bad version" (patch 4 '\xff');
  expect_corrupt "bad kind" (patch 5 '\x09');
  (* Oversized length field: bytes 22-25 big-endian. *)
  expect_corrupt "oversized length" (patch 22 '\x7f');
  (* Flip one payload byte: the SHA-1 digest must catch it. *)
  expect_corrupt "payload digest" (patch (String.length good - 1) '!');
  (* A truncated frame is not corrupt — just incomplete. *)
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed_string d (String.sub good 0 (String.length good - 1));
  check Alcotest.bool "truncated prefix yields nothing" true (Wire.Decoder.next d = None);
  (* Encoder-side validation. *)
  (match Wire.encode (frame Wire.Data ~src:(-1) ~dst:0 ~seq:0 "") with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "negative src accepted");
  match Wire.encode (frame Wire.Data ~src:0 ~dst:0 ~seq:0 (String.make (Wire.max_payload + 1) 'a')) with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized payload accepted"

let wire_fuzz =
  QCheck.Test.make ~count:200 ~name:"wire codec round-trips arbitrary frames"
    QCheck.(
      quad (int_bound 3) (pair (int_bound 1000) (int_bound 1000))
        (int_bound 1_000_000) (string_of_size Gen.(int_bound 2000)))
    (fun (k, (src, dst), seq, payload) ->
      let kind = List.nth [ Wire.Data; Wire.Ack; Wire.Hello; Wire.Ctrl ] k in
      let f = frame kind ~src ~dst ~seq payload in
      let d = Wire.Decoder.create () in
      (* Split the wire bytes at an arbitrary point to exercise buffering. *)
      let bytes = Wire.encode f in
      let cut = seq mod (String.length bytes + 1) in
      Wire.Decoder.feed_string d (String.sub bytes 0 cut);
      let early = Wire.Decoder.next d in
      Wire.Decoder.feed_string d (String.sub bytes cut (String.length bytes - cut));
      match (early, drain d) with
      | None, [ got ] | Some got, [] ->
          got.Wire.kind = f.kind && got.src = f.src && got.dst = f.dst && got.seq = f.seq
          && got.payload = f.payload
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Durable outbox *)

let test_outbox_basic () =
  with_temp_dir "dpc-outbox" (fun dir ->
      let ob = Outbox.open_ ~dir in
      check Alcotest.int "fresh next_seq" 1 (Outbox.next_seq ob ~dst:1);
      Outbox.record_send ob ~dst:1 ~seq:1 "a";
      Outbox.record_send ob ~dst:1 ~seq:2 "b";
      Outbox.record_send ob ~dst:2 ~seq:1 "c";
      Outbox.record_ack ob ~dst:1 ~seq:1;
      check Alcotest.int "next_seq advanced" 3 (Outbox.next_seq ob ~dst:1);
      check Alcotest.int "acked" 1 (Outbox.acked ob ~dst:1);
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
        "pending is the unacked tail"
        [ (1, 2, "b"); (2, 1, "c") ]
        (Outbox.pending ob);
      Outbox.close ob)

(* The exactly-once property across a crash: whatever interleaving of
   sends and cumulative acks hit the ledger, a reload (what a restarted
   daemon does) reconstructs exactly the recorded-but-unacked tail — the
   frames to re-offer — and the durable cursor never runs backwards, so
   a re-offered send can never collide with a fresh sequence number. *)
let outbox_crash_reload =
  QCheck.Test.make ~count:60 ~name:"outbox reload reconstructs the unacked tail exactly once"
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_bound 2) (int_bound 3)))
    (fun ops ->
      with_temp_dir "dpc-outbox-fuzz" (fun dir ->
          let ob = Outbox.open_ ~dir in
          let next = Array.make 3 1 in
          let sent = Hashtbl.create 16 in
          let acked = Array.make 3 0 in
          List.iter
            (fun (dst, op) ->
              if op < 3 then begin
                (* A send: persist-before-first-send means the record always
                   reaches the ledger, even if the frame never leaves. *)
                let seq = next.(dst) in
                next.(dst) <- seq + 1;
                let payload = Printf.sprintf "p-%d-%d" dst seq in
                Outbox.record_send ob ~dst ~seq payload;
                Hashtbl.replace sent (dst, seq) payload
              end
              else if next.(dst) > 1 then begin
                (* A cumulative ack somewhere into the sent range. *)
                let seq = 1 + ((dst * 7) mod (next.(dst) - 1)) in
                Outbox.record_ack ob ~dst ~seq;
                acked.(dst) <- max acked.(dst) seq
              end)
            ops;
          (* kill -9: no close, no flush — reopen from the bytes on disk. *)
          let reloaded = Outbox.open_ ~dir in
          let expected =
            Hashtbl.fold
              (fun (dst, seq) payload acc ->
                if seq > acked.(dst) then ((dst, seq, payload) :: acc) else acc)
              sent []
            |> List.sort compare
          in
          let ok_pending = Outbox.pending reloaded = expected in
          let ok_cursor =
            List.for_all (fun dst -> Outbox.next_seq reloaded ~dst = next.(dst)) [ 0; 1; 2 ]
          in
          (* Compaction must preserve exactly the same observable state. *)
          Outbox.compact reloaded;
          let ok_compacted = Outbox.pending reloaded = expected in
          let recompacted = Outbox.open_ ~dir in
          let ok_reload2 =
            Outbox.pending recompacted = expected
            && List.for_all (fun dst -> Outbox.next_seq recompacted ~dst = next.(dst)) [ 0; 1; 2 ]
          in
          Outbox.close ob;
          Outbox.close reloaded;
          Outbox.close recompacted;
          ok_pending && ok_cursor && ok_compacted && ok_reload2))

(* A kill mid-append leaves a torn record at the end of the file; the
   reload must keep the valid prefix and drop the tail — safe, because
   an unfinished record's frame was never transmitted. *)
let test_outbox_torn_tail () =
  with_temp_dir "dpc-outbox-torn" (fun dir ->
      let ob = Outbox.open_ ~dir in
      Outbox.record_send ob ~dst:1 ~seq:1 "kept";
      Outbox.record_send ob ~dst:1 ~seq:2 "also kept";
      Outbox.close ob;
      let path = Filename.concat dir "outbox.log" in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      (* Tag byte of a Send record with nothing behind it. *)
      ignore (Unix.write_substring fd "\x00" 0 1);
      Unix.close fd;
      let reloaded = Outbox.open_ ~dir in
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.string))
        "torn tail dropped, prefix kept"
        [ (1, 1, "kept"); (1, 2, "also kept") ]
        (Outbox.pending reloaded);
      check Alcotest.int "cursor from the prefix" 3 (Outbox.next_seq reloaded ~dst:1);
      Outbox.close reloaded)

(* ------------------------------------------------------------------ *)
(* Control protocol codec *)

let test_ctrl_roundtrip () =
  let tuple = Dpc_apps.Forwarding.packet ~src:0 ~dst:2 ~payload:"x" in
  let requests =
    [
      Dpc_proc.Ctrl.Load [ tuple; Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 ];
      Dpc_proc.Ctrl.Inject tuple;
      Dpc_proc.Ctrl.Slow_insert tuple;
      Dpc_proc.Ctrl.Slow_delete tuple;
      Dpc_proc.Ctrl.Checkpoint;
      Dpc_proc.Ctrl.Status;
      Dpc_proc.Ctrl.Digest;
      Dpc_proc.Ctrl.Shutdown;
      Dpc_proc.Ctrl.Compact;
      Dpc_proc.Ctrl.Block 2;
      Dpc_proc.Ctrl.Unblock 2;
    ]
  in
  List.iter
    (fun req ->
      check Alcotest.bool "request round-trips" true
        (Dpc_proc.Ctrl.decode_request (Dpc_proc.Ctrl.encode_request req) = req))
    requests;
  let replies =
    [
      Dpc_proc.Ctrl.Ok;
      Dpc_proc.Ctrl.Deleted true;
      Dpc_proc.Ctrl.Status_r
        {
          node = 1;
          recovered = true;
          unacked = 3;
          data_sent = 10;
          data_received = 7;
          fired = 21;
          outputs = 13;
          wal_entries = 5;
          outbox_bytes = 420;
        };
      Dpc_proc.Ctrl.Digest_r { node = 2; store = "abc"; db = "def" };
      Dpc_proc.Ctrl.Error "nope";
    ]
  in
  List.iter
    (fun reply ->
      check Alcotest.bool "reply round-trips" true
        (Dpc_proc.Ctrl.decode_reply (Dpc_proc.Ctrl.encode_reply reply) = reply))
    replies

(* ------------------------------------------------------------------ *)
(* A live socket pair: two transports in one process, pumped alternately. *)

(* Node [local] of a [nodes]-wide socket cluster under [dir], with its
   sender ledger in [dir]/ledger-<local>. *)
let socket_at dir ~nodes ~local =
  let addr_of node = Printf.sprintf "unix:%s/n%d.sock" dir node in
  let outbox = Outbox.open_ ~dir:(Filename.concat dir (Printf.sprintf "ledger-%d" local)) in
  Socket.create ~nodes ~local ~addr_of ~outbox ()

let pump transports ~until_cond ~tag =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (until_cond ())) && Unix.gettimeofday () < deadline do
    List.iter
      (fun tr -> Dpc_net.Transport.run ~until:(Dpc_net.Transport.now tr +. 0.02) tr)
      transports
  done;
  if not (until_cond ()) then Alcotest.failf "%s: condition not reached within 10s" tag

let test_socket_pair () =
  with_temp_dir "dpc-sock" (fun dir ->
      let a = socket_at dir ~nodes:2 ~local:0 in
      let b = socket_at dir ~nodes:2 ~local:1 in
      Fun.protect
        ~finally:(fun () ->
          Socket.close a;
          Socket.close b)
        (fun () ->
          let got_a = ref [] and got_b = ref [] in
          Socket.set_deliver a (fun ~src ~payload -> got_a := (src, payload) :: !got_a);
          Socket.set_deliver b (fun ~src ~payload -> got_b := (src, payload) :: !got_b);
          let persist_b = ref [] in
          (Socket.channels b).observe (fun ev -> persist_b := ev :: !persist_b);
          let ta = Socket.transport a and tb = Socket.transport b in
          for i = 1 to 5 do
            Socket.send_payload a ~dst:1 (Printf.sprintf "a->b %d" i)
          done;
          Socket.send_payload b ~dst:0 "b->a 1";
          pump [ ta; tb ] ~tag:"duplex delivery" ~until_cond:(fun () ->
              List.length !got_b = 5 && List.length !got_a = 1);
          check
            (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
            "b received in channel order"
            (List.init 5 (fun i -> (0, Printf.sprintf "a->b %d" (i + 1))))
            (List.rev !got_b);
          check
            (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
            "a received" [ (1, "b->a 1") ] (List.rev !got_a);
          (* Acks flow back: pump until both outboxes drain. *)
          pump [ ta; tb ] ~tag:"acks drain" ~until_cond:(fun () ->
              Socket.unacked a = 0 && Socket.unacked b = 0);
          (* The receiver persisted every watermark advance, in order,
             before the deliveries it covers. *)
          let expected_marks =
            List.filter_map
              (function
                | Dpc_net.Chan.Expected { src = 0; dst = 1; seq } -> Some seq | _ -> None)
              (List.rev !persist_b)
          in
          check (Alcotest.list Alcotest.int) "watermark advances in order" [ 2; 3; 4; 5; 6 ]
            expected_marks;
          let sa = Socket.stats a in
          check Alcotest.int "a sent five" 5 sa.data_sent;
          check Alcotest.int "a received one" 1 sa.data_received))

(* A frame re-arriving while it is already held above a gap is a
   duplicate and counted as one, exactly as the simulator's layer counts
   it; the gap's arrival then drains the window in order. The peer is a
   raw wire client, so the schedule of arrivals is exact. *)
let test_socket_held_duplicate_counted () =
  with_temp_dir "dpc-sock" (fun dir ->
      let b = socket_at dir ~nodes:2 ~local:1 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with _ -> ());
          Socket.close b)
        (fun () ->
          let got = ref [] in
          Socket.set_deliver b (fun ~src:_ ~payload -> got := payload :: !got);
          Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "n1.sock"));
          let send frames =
            let bytes = String.concat "" (List.map Wire.encode frames) in
            ignore (Unix.write_substring fd bytes 0 (String.length bytes))
          in
          let data seq = frame Data ~src:0 ~dst:1 ~seq (Printf.sprintf "m%d" seq) in
          send [ frame Hello ~src:0 ~dst:1 ~seq:0 ""; data 2; data 2; data 3 ];
          let tb = Socket.transport b in
          pump [ tb ] ~tag:"held arrivals" ~until_cond:(fun () -> (Socket.stats b).held = 2);
          let s = Socket.stats b in
          check Alcotest.int "the re-arrival is a counted duplicate" 1 s.dup_dropped;
          check Alcotest.int "nothing delivered across the gap" 0 s.data_received;
          send [ data 1 ];
          pump [ tb ] ~tag:"gap fills" ~until_cond:(fun () -> (Socket.stats b).data_received = 3);
          check (Alcotest.list Alcotest.string) "in order, once each" [ "m1"; "m2"; "m3" ]
            (List.rev !got)))

(* The ledger is the sender's whole state: frames sent to an absent peer
   survive the sender's process, and a new socket over the same ledger
   delivers them — exactly once, in order — with no call from the host.
   A fresh send after the restart continues the channel past them. *)
let test_socket_restart_from_ledger () =
  with_temp_dir "dpc-sock" (fun dir ->
      let a = socket_at dir ~nodes:2 ~local:0 in
      for i = 1 to 3 do
        Socket.send_payload a ~dst:1 (Printf.sprintf "m%d" i)
      done;
      check Alcotest.int "frames wait in the ledger" 3 (Socket.unacked a);
      Socket.close a;
      let a = socket_at dir ~nodes:2 ~local:0 in
      let b = socket_at dir ~nodes:2 ~local:1 in
      Fun.protect
        ~finally:(fun () ->
          Socket.close a;
          Socket.close b)
        (fun () ->
          let got = ref [] in
          Socket.set_deliver b (fun ~src ~payload -> got := (src, payload) :: !got);
          let ta = Socket.transport a and tb = Socket.transport b in
          pump [ ta; tb ] ~tag:"ledger drains" ~until_cond:(fun () ->
              List.length !got = 3 && Socket.unacked a = 0);
          check
            (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
            "each once, in order"
            [ (0, "m1"); (0, "m2"); (0, "m3") ]
            (List.rev !got);
          check Alcotest.int "the restarted sender made no fresh send" 0
            (Socket.stats a).data_sent;
          Socket.send_payload a ~dst:1 "m4";
          pump [ ta; tb ] ~tag:"fresh send" ~until_cond:(fun () ->
              List.length !got = 4 && Socket.unacked a = 0);
          check (Alcotest.list Alcotest.string) "the channel continues" [ "m1"; "m2"; "m3"; "m4" ]
            (List.rev_map snd !got)))

(* A data frame that finds the receive window full is refused, counted,
   and left unacked; the peer's resend delivers it once the gap fills. *)
let test_socket_counts_overflow () =
  with_temp_dir "dpc-sock" (fun dir ->
      let b = socket_at dir ~nodes:2 ~local:1 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with _ -> ());
          Socket.close b)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "n1.sock"));
          let send frames =
            let bytes = String.concat "" (List.map Wire.encode frames) in
            ignore (Unix.write_substring fd bytes 0 (String.length bytes))
          in
          let data seq = frame Data ~src:0 ~dst:1 ~seq (Printf.sprintf "m%d" seq) in
          let cap = Dpc_net.Chan.hold_cap in
          let tb = Socket.transport b in
          (* Sequence 1 is missing: 2 .. cap + 1 fill the window. *)
          send (frame Hello ~src:0 ~dst:1 ~seq:0 "" :: List.init cap (fun i -> data (i + 2)));
          pump [ tb ] ~tag:"window fills" ~until_cond:(fun () -> (Socket.stats b).held = cap);
          send [ data (cap + 2) ];
          pump [ tb ] ~tag:"overflow" ~until_cond:(fun () ->
              (Socket.stats b).overflow_dropped = 1);
          check Alcotest.int "still held" cap (Socket.stats b).held;
          send [ data 1 ];
          pump [ tb ] ~tag:"gap fills" ~until_cond:(fun () ->
              (Socket.stats b).data_received = cap + 1);
          send [ data (cap + 2) ];
          pump [ tb ] ~tag:"resend delivers" ~until_cond:(fun () ->
              (Socket.stats b).data_received = cap + 2);
          let s = Socket.stats b in
          check Alcotest.int "one refusal" 1 s.overflow_dropped;
          check Alcotest.int "no duplicates" 0 s.dup_dropped))

(* ------------------------------------------------------------------ *)
(* Durable disk recovery, in-process: the same forwarding scenario the
   dpcd oracle runs, on a direct transport with the log mirrored to
   disk; a second world attached to the same directory must rebuild
   byte-identical per-node digests from checkpoint chains + WAL alone. *)

let quiet_control () : Dpc_net.Transport.crash_control =
  {
    crash = ignore;
    restart = ignore;
    is_up = (fun _ -> true);
    crash_stats = { crashes = Atomic.make 0; suppressed = Atomic.make 0 };
  }

let build_disk_world scheme dir =
  let delp = Dpc_apps.Forwarding.delp () in
  let env = Dpc_apps.Forwarding.env in
  let backend = Dpc_core.Backend.make scheme ~delp ~env ~nodes:Dpc_proc.Scenario.nodes in
  let transport = Dpc_net.Transport.direct ~nodes:Dpc_proc.Scenario.nodes () in
  let runtime =
    Dpc_engine.Runtime.create ~transport ~delp ~env ~hook:(Dpc_core.Backend.hook backend)
      ~nodes:(Dpc_core.Backend.nodes backend) ()
  in
  let durable =
    Dpc_core.Durable.attach ~backend ~runtime ~control:(quiet_control ())
      ~config:{ Dpc_core.Durable.checkpoint_every = 4; rebase_every = 2 }
      ~disk:dir ()
  in
  (backend, runtime, durable)

let digests backend runtime =
  Array.init Dpc_proc.Scenario.nodes (fun node ->
      ( Dpc_core.Backend.digest_node backend node,
        Dpc_proc.Scenario.db_digest (Dpc_engine.Runtime.db runtime node) ))

let test_disk_recovery () =
  List.iter
    (fun scheme ->
      with_temp_dir "dpc-disk" (fun dir ->
          let backend, runtime, durable = build_disk_world scheme dir in
          Dpc_engine.Runtime.load_slow runtime (Dpc_proc.Scenario.routes ());
          let phase injects =
            List.iter (fun ev -> Dpc_engine.Runtime.inject runtime ev) injects;
            Dpc_engine.Runtime.run runtime
          in
          phase (Dpc_proc.Scenario.pre_packets ());
          phase (Dpc_proc.Scenario.mid_packets ());
          ignore (Dpc_engine.Runtime.delete_slow_runtime runtime (Dpc_proc.Scenario.refreshed_route ()));
          Dpc_engine.Runtime.insert_slow_runtime runtime (Dpc_proc.Scenario.refreshed_route ());
          Dpc_engine.Runtime.run runtime;
          phase (Dpc_proc.Scenario.post_packets ());
          let before = digests backend runtime in
          (* kill -9 durability model: write() to the kernel survives the
             signal, but entries still in the userspace group-commit buffer
             do not. A real daemon flushes before every ack and outbox
             record, so a quiescent cluster has an empty buffer — model
             that quiescent point before handing the directory over. *)
          for node = 0 to Dpc_proc.Scenario.nodes - 1 do
            Dpc_core.Durable.flush_wal durable node
          done;
          (* The "restarted process": a fresh world over the same directory. *)
          let backend2, runtime2, durable2 = build_disk_world scheme dir in
          for node = 0 to Dpc_proc.Scenario.nodes - 1 do
            if not (Dpc_core.Durable.recovered durable2 node) then
              Alcotest.failf "node %d found no on-disk state" node;
            Dpc_core.Durable.recover durable2 node
          done;
          let after = digests backend2 runtime2 in
          Array.iteri
            (fun node (store, db) ->
              let store', db' = after.(node) in
              check Alcotest.string
                (Printf.sprintf "%s node %d store digest" (Dpc_core.Backend.scheme_name scheme) node)
                store store';
              check Alcotest.string
                (Printf.sprintf "%s node %d db digest" (Dpc_core.Backend.scheme_name scheme) node)
                db db')
            before))
    Dpc_core.Backend.all_schemes

(* Every remote send of the live run — arrivals shipped onward and the
   remote half of a route refresh's sig broadcasts — must come back out
   of a crash-and-replay in the same order: the sender's ledger
   reconciles replayed sends by position, so a missing one shifts every
   later one. Node 1 is the only node this "process" hosts. *)
let test_replay_reoffers_remote_sends () =
  let delp = Dpc_apps.Forwarding.delp () in
  let env = Dpc_apps.Forwarding.env in
  let nodes = Dpc_proc.Scenario.nodes in
  let backend = Dpc_core.Backend.make Dpc_core.Backend.S_advanced ~delp ~env ~nodes in
  let runtime =
    Dpc_engine.Runtime.create ~transport:(Dpc_net.Transport.direct ~nodes ()) ~delp ~env
      ~hook:(Dpc_core.Backend.hook backend) ~nodes:(Dpc_core.Backend.nodes backend) ()
  in
  let durable =
    Dpc_core.Durable.attach ~backend ~runtime ~control:(quiet_control ())
      ~config:{ Dpc_core.Durable.checkpoint_every = 0; rebase_every = 0 }
      ()
  in
  let live = ref [] and replayed = ref [] in
  Dpc_engine.Runtime.set_remote runtime
    ~is_local:(fun node -> node = 1)
    ~ship:(fun ~dst ~bytes:_ ~payload -> live := (dst, payload) :: !live)
    ~replayed:(fun ~dst ~payload -> replayed := (dst, payload) :: !replayed);
  let route = Dpc_apps.Forwarding.route ~at:1 ~dst:2 ~next:2 in
  let packets tag =
    List.iter
      (fun i ->
        Dpc_engine.Runtime.inject runtime
          (Dpc_apps.Forwarding.packet ~src:1 ~dst:2 ~payload:(Printf.sprintf "%s%d" tag i)))
      [ 1; 2 ];
    Dpc_engine.Runtime.run runtime
  in
  Dpc_engine.Runtime.load_slow runtime [ route ];
  packets "pre";
  ignore (Dpc_engine.Runtime.delete_slow_runtime runtime route);
  Dpc_engine.Runtime.insert_slow_runtime runtime route;
  Dpc_engine.Runtime.run runtime;
  packets "post";
  let sigs =
    List.filter
      (fun (_, payload) ->
        match Dpc_engine.Journal.read (Dpc_util.Serialize.reader payload) with
        | Dpc_engine.Journal.Sig _ -> true
        | _ -> false)
      !live
  in
  check Alcotest.int "the refresh shipped a sig to each remote node, twice" 4 (List.length sigs);
  Dpc_core.Durable.crash durable 1;
  Dpc_core.Durable.recover durable 1;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "replayed remote sends = live remote sends" (List.rev !live) (List.rev !replayed)

(* A manifest or cut must end where its last field does: a trailing byte
   is a spliced or corrupted file, refused at attach. *)
let test_trailing_bytes_rejected file () =
  with_temp_dir "dpc-trail" (fun dir ->
      ignore (build_disk_world Dpc_core.Backend.S_advanced dir);
      let path = Filename.concat (Dpc_core.Durable.node_dir dir 0) file in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      ignore (Unix.write_substring fd "\x00" 0 1);
      Unix.close fd;
      match build_disk_world Dpc_core.Backend.S_advanced dir with
      | _ -> Alcotest.failf "%s with a trailing byte accepted" file
      | exception Dpc_util.Serialize.Corrupt _ -> ())

let () =
  Alcotest.run "dpc_proc"
    [
      ( "wire codec",
        [
          Alcotest.test_case "round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "incremental, no partial delivery" `Quick test_wire_incremental;
          Alcotest.test_case "corruption detected" `Quick test_wire_corruption;
          QCheck_alcotest.to_alcotest wire_fuzz;
        ] );
      ( "durable outbox",
        [
          Alcotest.test_case "record / ack / pending" `Quick test_outbox_basic;
          QCheck_alcotest.to_alcotest outbox_crash_reload;
          Alcotest.test_case "torn tail dropped" `Quick test_outbox_torn_tail;
        ] );
      ("control protocol", [ Alcotest.test_case "round-trip" `Quick test_ctrl_roundtrip ]);
      ( "socket transport",
        [
          Alcotest.test_case "duplex pair" `Quick test_socket_pair;
          Alcotest.test_case "held re-arrival counted" `Quick test_socket_held_duplicate_counted;
          Alcotest.test_case "window overflow counted" `Quick test_socket_counts_overflow;
          Alcotest.test_case "restart from the ledger alone" `Quick test_socket_restart_from_ledger;
        ] );
      ( "disk recovery",
        [
          Alcotest.test_case "digest equality, all schemes" `Quick test_disk_recovery;
          Alcotest.test_case "replay re-offers every remote send" `Quick
            test_replay_reoffers_remote_sends;
          Alcotest.test_case "manifest trailing bytes rejected" `Quick
            (test_trailing_bytes_rejected "manifest");
          Alcotest.test_case "cut trailing bytes rejected" `Quick
            (test_trailing_bytes_rejected "cut-0.bin");
        ] );
    ]
