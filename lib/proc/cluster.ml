module Wire = Dpc_net.Wire
module Backend = Dpc_core.Backend

let addr_of ~dir node = Printf.sprintf "unix:%s/node-%d.sock" dir node

let scheme_arg = function
  | Backend.S_exspan -> "exspan"
  | Backend.S_basic -> "basic"
  | Backend.S_advanced -> "advanced"
  | Backend.S_advanced_interclass -> "advanced-interclass"

let scheme_of_arg = function
  | "exspan" -> Some Backend.S_exspan
  | "basic" -> Some Backend.S_basic
  | "advanced" -> Some Backend.S_advanced
  | "advanced-interclass" -> Some Backend.S_advanced_interclass
  | _ -> None

exception Oracle_failure of string

let failf fmt = Printf.ksprintf (fun msg -> raise (Oracle_failure msg)) fmt

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* ---- the control client ---------------------------------------------- *)

module Client = struct
  type t = { fd : Unix.file_descr; decoder : Wire.Decoder.t; node : int; mutable seq : int }

  (* The daemon binds its listen socket inside [Daemon.create], so a
     connection refused just means the process has not reached that point
     yet — retry until the deadline. *)
  let connect ~addr ~node ~timeout =
    let sa = Dpc_net.Socket.sockaddr addr in
    let deadline = Unix.gettimeofday () +. timeout in
    let rec attempt () =
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () -> fd
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
        when Unix.gettimeofday () < deadline ->
          Unix.close fd;
          Unix.sleepf 0.02;
          attempt ()
      | exception exn ->
          Unix.close fd;
          raise exn
    in
    let fd = attempt () in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    write_all fd (Wire.encode { kind = Hello; src = Wire.control_id; dst = node; seq = 0; payload = "" });
    { fd; decoder = Wire.Decoder.create (); node; seq = 0 }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let rec next_reply t ~seq buf =
    match Wire.Decoder.next t.decoder with
    | Some { kind = Ctrl; seq = s; payload; _ } when s = seq -> Ctrl.decode_reply payload
    | Some _ -> next_reply t ~seq buf
    | None -> (
        match Unix.read t.fd buf 0 (Bytes.length buf) with
        | 0 -> failf "daemon %d closed the control connection" t.node
        | n ->
            Wire.Decoder.feed t.decoder buf 0 n;
            next_reply t ~seq buf
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
            failf "daemon %d control reply timed out" t.node)

  let request t req =
    t.seq <- t.seq + 1;
    let seq = t.seq in
    write_all t.fd
      (Wire.encode
         { kind = Ctrl; src = Wire.control_id; dst = t.node; seq; payload = Ctrl.encode_request req });
    next_reply t ~seq (Bytes.create 65536)

  (* Fire-and-forget: [Shutdown] has no reply. *)
  let send t req =
    t.seq <- t.seq + 1;
    write_all t.fd
      (Wire.encode
         {
           kind = Ctrl;
           src = Wire.control_id;
           dst = t.node;
           seq = t.seq;
           payload = Ctrl.encode_request req;
         })
end

let expect_ok node what = function
  | Ctrl.Ok -> ()
  | Ctrl.Error msg -> failf "daemon %d rejected %s: %s" node what msg
  | _ -> failf "daemon %d: unexpected reply to %s" node what

let status client =
  match Client.request client Ctrl.Status with
  | Ctrl.Status_r s -> s
  | Ctrl.Error msg -> failf "daemon %d status failed: %s" client.Client.node msg
  | _ -> failf "daemon %d: unexpected reply to status" client.Client.node

(* ---- daemon processes ------------------------------------------------- *)

type proc = { node : int; mutable pid : int }

let spawn ?chaos ~exe ~dir ~scheme node =
  let log =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "node-%d.log" node))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let chaos_args =
    match chaos with
    | None -> []
    | Some ((fc : Dpc_net.Transport.fault_config), seed) ->
        [
          "--drop"; string_of_float fc.drop;
          "--dup"; string_of_float fc.duplicate;
          "--delay"; string_of_float fc.delay;
          "--delay-max"; string_of_float fc.delay_max;
          "--chaos-seed"; string_of_int seed;
        ]
  in
  let args =
    Array.of_list
      ([
         exe; "serve";
         "--scheme"; scheme_arg scheme;
         "--nodes"; string_of_int Scenario.nodes;
         "--local"; string_of_int node;
         "--dir"; dir;
       ]
      @ chaos_args)
  in
  let pid = Unix.create_process exe args Unix.stdin log log in
  Unix.close log;
  { node; pid }

let kill_hard proc =
  if proc.pid > 0 then begin
    (try Unix.kill proc.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] proc.pid) with Unix.Unix_error _ -> ());
    proc.pid <- -1
  end

(* Reap a daemon that was asked to shut down; escalate to SIGKILL if it
   does not exit within the grace period. *)
let reap ?(grace = 5.0) proc =
  if proc.pid > 0 then begin
    let deadline = Unix.gettimeofday () +. grace in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] proc.pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then kill_hard proc
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
      | _ -> proc.pid <- -1
      | exception Unix.Unix_error _ -> proc.pid <- -1
    in
    wait ()
  end

(* ---- the quiescence barrier ------------------------------------------- *)

(* Two consecutive all-daemon polls with zero unacked frames everywhere
   and unchanged monotonic counters: nothing in flight, nothing happened
   between the polls, so (absent new control input) nothing will. *)
let quiesce ?(timeout = 30.0) clients =
  let deadline = Unix.gettimeofday () +. timeout in
  let poll () =
    List.map (fun c -> let s = status c in (s.Ctrl.unacked, s.data_sent, s.data_received)) clients
  in
  let stable a b =
    List.for_all2
      (fun (ua, sa, ra) (ub, sb, rb) -> ua = 0 && ub = 0 && sa = sb && ra = rb)
      a b
  in
  let rec settle prev =
    if Unix.gettimeofday () > deadline then failf "cluster did not quiesce within %.0fs" timeout;
    let round = poll () in
    if stable prev round then ()
    else begin
      Unix.sleepf 0.03;
      settle round
    end
  in
  settle (poll ())

(* ---- the oracle ------------------------------------------------------- *)

let mkdir_p dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let digest client =
  match Client.request client Ctrl.Digest with
  | Ctrl.Digest_r { node; store; db } ->
      if node <> client.Client.node then
        failf "daemon %d answered for node %d" client.Client.node node;
      { Scenario.store; db }
  | Ctrl.Error msg -> failf "daemon %d digest failed: %s" client.Client.node msg
  | _ -> failf "daemon %d: unexpected reply to digest" client.Client.node

let run_scheme ?chaos ~exe ~dir scheme =
  mkdir_p dir;
  let reference = Scenario.simulate scheme in
  let procs = Array.init Scenario.nodes (fun node -> { node; pid = -1 }) in
  let clients : Client.t option array = Array.make Scenario.nodes None in
  let client node = Option.get clients.(node) in
  let connect node =
    clients.(node) <- Some (Client.connect ~addr:(addr_of ~dir node) ~node ~timeout:10.0)
  in
  let all_clients () = Array.to_list clients |> List.filter_map Fun.id in
  let cleanup () =
    Array.iter (fun c -> Option.iter Client.close c) clients;
    Array.iter kill_hard procs
  in
  match
    Fun.protect ~finally:cleanup (fun () ->
        Array.iteri (fun node p -> p.pid <- (spawn ?chaos ~exe ~dir ~scheme node).pid) procs;
        Array.iteri (fun node _ -> connect node) procs;
        (* Routes everywhere: each daemon keeps only its own node's entries
           live, but loading the full table keeps the daemons agnostic of
           which rows they will need. *)
        Array.iter
          (fun p -> expect_ok p.node "load" (Client.request (client p.node) (Ctrl.Load (Scenario.routes ()))))
          procs;
        quiesce (all_clients ());
        (* Phase 1: pre packets on the healthy chain. *)
        List.iter
          (fun packet -> expect_ok 0 "inject" (Client.request (client 0) (Ctrl.Inject packet)))
          (Scenario.pre_packets ());
        quiesce (all_clients ());
        (* Cut a checkpoint at node 1 so its recovery restores a real cut
           (channels included) and replays only the tail. *)
        expect_ok 1 "checkpoint" (Client.request (client 1) Ctrl.Checkpoint);
        (* Phase 2: kill node 1 the hard way, inject while it is down. *)
        Client.close (client 1);
        clients.(1) <- None;
        kill_hard procs.(1);
        List.iter
          (fun packet -> expect_ok 0 "inject" (Client.request (client 0) (Ctrl.Inject packet)))
          (Scenario.mid_packets ());
        (* Let node 0 actually attempt (and fail) deliveries toward the dead
           process — the frames must wait in its durable outbox. *)
        Unix.sleepf 0.3;
        let stalled = (status (client 0)).Ctrl.unacked in
        if stalled = 0 then failf "node 0 reported nothing in flight while node 1 was dead";
        procs.(1).pid <- (spawn ?chaos ~exe ~dir ~scheme 1).pid;
        connect 1;
        let s1 = status (client 1) in
        if not s1.Ctrl.recovered then failf "respawned node 1 did not recover from disk";
        quiesce (all_clients ());
        (* Phase 3: the §5.5 route refresh at node 1. *)
        (match Client.request (client 1) (Ctrl.Slow_delete (Scenario.refreshed_route ())) with
        | Ctrl.Deleted true -> ()
        | Ctrl.Deleted false -> failf "node 1 lost its route across the crash"
        | Ctrl.Error msg -> failf "node 1 rejected the route delete: %s" msg
        | _ -> failf "node 1: unexpected reply to the route delete");
        expect_ok 1 "route reinsert"
          (Client.request (client 1) (Ctrl.Slow_insert (Scenario.refreshed_route ())));
        quiesce (all_clients ());
        (* Phase 4: post packets against the re-materialized chains. *)
        List.iter
          (fun packet -> expect_ok 0 "inject" (Client.request (client 0) (Ctrl.Inject packet)))
          (Scenario.post_packets ());
        quiesce (all_clients ());
        (* Phase 5: partition 0 <-> 1 in both directions, inject into the
           cut, kill node 1 mid-partition, restart it, then heal. The part
           packets must ride node 0's durable outbox across the outage and
           the crash, and arrive exactly once after the link comes back. *)
        expect_ok 0 "block" (Client.request (client 0) (Ctrl.Block 1));
        expect_ok 1 "block" (Client.request (client 1) (Ctrl.Block 0));
        List.iter
          (fun packet -> expect_ok 0 "inject" (Client.request (client 0) (Ctrl.Inject packet)))
          (Scenario.part_packets ());
        (* Give node 0's retransmit scan time to keep (not) delivering. *)
        Unix.sleepf 0.3;
        let parted = (status (client 0)).Ctrl.unacked in
        if parted = 0 then failf "node 0 reported nothing in flight across the partition";
        (* Crash the far side of the cut while it is unreachable. Its
           volatile block dies with the process; node 0's survives, so the
           partition stays up one-way until the explicit heal below. *)
        Client.close (client 1);
        clients.(1) <- None;
        kill_hard procs.(1);
        procs.(1).pid <- (spawn ?chaos ~exe ~dir ~scheme 1).pid;
        connect 1;
        if not (status (client 1)).Ctrl.recovered then
          failf "node 1 did not recover from disk after the mid-partition crash";
        expect_ok 0 "unblock" (Client.request (client 0) (Ctrl.Unblock 1));
        quiesce (all_clients ());
        let sink = status (client 2) in
        if sink.Ctrl.outputs <> Scenario.total_outputs then
          failf "node 2 recorded %d outputs, expected %d" sink.Ctrl.outputs Scenario.total_outputs;
        (* The verdict: every node's digests against the simulator's. *)
        Array.iteri
          (fun node (expected : Scenario.digests) ->
            let got = digest (client node) in
            if got.Scenario.store <> expected.Scenario.store then
              failf "node %d store digest diverged from the simulator (%s vs %s)" node
                got.Scenario.store expected.Scenario.store;
            if got.Scenario.db <> expected.Scenario.db then
              failf "node %d db digest diverged from the simulator (%s vs %s)" node
                got.Scenario.db expected.Scenario.db)
          reference;
        let summary =
          Printf.sprintf
            "%d outputs, node-1 crash recovered, %d frames stalled while down, %d across the partition%s"
            Scenario.total_outputs stalled parted
            (if Option.is_some chaos then ", chaos on" else "")
        in
        Array.iter
          (fun p -> if Option.is_some clients.(p.node) then Client.send (client p.node) Ctrl.Shutdown)
          procs;
        Array.iter reap procs;
        summary)
  with
  | summary -> Ok summary
  | exception Oracle_failure msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

(* ---- the soak oracle --------------------------------------------------- *)

(* Ceiling for one daemon's compacted outbox ledger. After a quiesced
   round everything is acked, so [Compact] rewrites the file down to the
   per-channel cursor records — a few dozen bytes per peer, independent
   of how many rounds have flowed through. *)
let soak_outbox_cap = 1024

let run_soak ?chaos ~exe ~dir ~rounds ~per_round scheme =
  mkdir_p dir;
  let reference = Scenario.simulate_soak scheme ~rounds ~per_round in
  let procs = Array.init Scenario.nodes (fun node -> { node; pid = -1 }) in
  let clients : Client.t option array = Array.make Scenario.nodes None in
  let client node = Option.get clients.(node) in
  let all_clients () = Array.to_list clients |> List.filter_map Fun.id in
  let cleanup () =
    Array.iter (fun c -> Option.iter Client.close c) clients;
    Array.iter kill_hard procs
  in
  match
    Fun.protect ~finally:cleanup (fun () ->
        Array.iteri (fun node p -> p.pid <- (spawn ?chaos ~exe ~dir ~scheme node).pid) procs;
        Array.iteri
          (fun node _ ->
            clients.(node) <- Some (Client.connect ~addr:(addr_of ~dir node) ~node ~timeout:10.0))
          procs;
        Array.iter
          (fun p -> expect_ok p.node "load" (Client.request (client p.node) (Ctrl.Load (Scenario.routes ()))))
          procs;
        quiesce (all_clients ());
        let ledger_peak = ref 0 in
        for round = 1 to rounds do
          List.iter
            (fun packet -> expect_ok 0 "inject" (Client.request (client 0) (Ctrl.Inject packet)))
            (Scenario.soak_packets ~round per_round);
          quiesce (all_clients ());
          (* A quiesced round means every frame is acked, so compaction must
             shrink each ledger back under a round-independent ceiling. *)
          List.iter
            (fun c ->
              expect_ok c.Client.node "compact" (Client.request c Ctrl.Compact);
              let after = (status c).Ctrl.outbox_bytes in
              ledger_peak := max !ledger_peak after;
              if after > soak_outbox_cap then
                failf "round %d: node %d outbox still %d bytes after compact (cap %d)" round
                  c.Client.node after soak_outbox_cap)
            (all_clients ())
        done;
        let sink = status (client 2) in
        let expected_outputs = rounds * per_round in
        if sink.Ctrl.outputs <> expected_outputs then
          failf "node 2 recorded %d outputs, expected %d" sink.Ctrl.outputs expected_outputs;
        Array.iteri
          (fun node (expected : Scenario.digests) ->
            let got = digest (client node) in
            if got.Scenario.store <> expected.Scenario.store then
              failf "node %d store digest diverged from the simulator (%s vs %s)" node
                got.Scenario.store expected.Scenario.store;
            if got.Scenario.db <> expected.Scenario.db then
              failf "node %d db digest diverged from the simulator (%s vs %s)" node
                got.Scenario.db expected.Scenario.db)
          reference;
        let summary =
          Printf.sprintf "%d rounds x %d packets, ledger peak %d bytes (cap %d)" rounds per_round
            !ledger_peak soak_outbox_cap
        in
        Array.iter
          (fun p -> if Option.is_some clients.(p.node) then Client.send (client p.node) Ctrl.Shutdown)
          procs;
        Array.iter reap procs;
        summary)
  with
  | summary -> Ok summary
  | exception Oracle_failure msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

let run_all ?chaos ~exe ~dir schemes =
  mkdir_p dir;
  List.fold_left
    (fun ok scheme ->
      let sub = Filename.concat dir (scheme_arg scheme) in
      match run_scheme ?chaos ~exe ~dir:sub scheme with
      | Ok summary ->
          Printf.printf "PASS %-20s %s\n%!" (scheme_arg scheme) summary;
          ok
      | Error msg ->
          Printf.printf "FAIL %-20s %s (logs under %s)\n%!" (scheme_arg scheme) msg sub;
          false)
    true schemes

let run_soak_all ?chaos ~exe ~dir ~rounds ~per_round schemes =
  mkdir_p dir;
  List.fold_left
    (fun ok scheme ->
      let sub = Filename.concat dir ("soak-" ^ scheme_arg scheme) in
      match run_soak ?chaos ~exe ~dir:sub ~rounds ~per_round scheme with
      | Ok summary ->
          Printf.printf "PASS soak %-20s %s\n%!" (scheme_arg scheme) summary;
          ok
      | Error msg ->
          Printf.printf "FAIL soak %-20s %s (logs under %s)\n%!" (scheme_arg scheme) msg sub;
          false)
    true schemes
