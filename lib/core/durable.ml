module S = Dpc_util.Serialize
module Metrics = Dpc_util.Metrics
module Rng = Dpc_util.Rng
module Clock = Dpc_util.Clock
module Node = Dpc_engine.Node
module Db = Dpc_engine.Db
module Runtime = Dpc_engine.Runtime
module Journal = Dpc_engine.Journal
module Transport = Dpc_net.Transport
module File_io = Dpc_util.File_io

type config = { checkpoint_every : int; rebase_every : int }

let default_config = { checkpoint_every = 64; rebase_every = 8 }

(* What a node needs to come back: the store tables, the slow-table
   database, and its reliable-channel sequence state, all as of the same
   boundary. A delta cut carries the store and db CHANGES since the
   previous cut; only the channel snapshot (O(channels) sequence
   numbers, not O(state)) is always full. *)
type checkpoint = { store : string; db : string; channels : string option }

(* One node's on-disk mirror: cut files + a write-ahead log named by
   epoch, tied together by an atomically-replaced manifest. The manifest
   rename is the commit point of a compaction; every other file write
   happens strictly before it, so a crash at any instant leaves either
   the old (cuts, wal) generation or the new one fully intact. *)
type disk = {
  dir : string;
  mutable wal_fd : Unix.file_descr;
  mutable epoch : int;  (* names the live wal file, wal-<epoch>.log *)
  mutable base_id : int;  (* cut id of the full checkpoint; -1 before the first *)
  mutable delta_ids : int list;  (* oldest first *)
  mutable next_cut : int;
}

type node_log = {
  mutable checkpoint : checkpoint option;  (* last full (base) cut *)
  mutable deltas : checkpoint list;  (* delta cuts since the base, newest first *)
  mutable wal : string list;  (* serialized entry groups, newest first *)
  mutable wal_entries : int;
  mutable boundaries : int;  (* boundary entries currently in the wal *)
  (* Group commit: entries of the current top-level operation accumulate
     here and land in [wal] as ONE blob when the next boundary (or a
     crash/checkpoint) closes the group — one buffered append and one
     metrics tick per operation instead of per entry. *)
  pending : S.writer;
  mutable pending_entries : int;
  mutable pending_bytes : int;
  (* Durable counters: they live here, not in the node registry, so a
     crash cannot erase them; [rematerialize] copies them back into the
     wiped registry so metric snapshots stay complete. *)
  mutable crashes : int;
  mutable wal_bytes : int;  (* cumulative bytes ever appended (incl. pending) *)
  mutable checkpoints : int;
  mutable checkpoint_bytes : int;  (* cumulative serialized cut bytes *)
  mutable delta_cuts : int;  (* how many of [checkpoints] were deltas *)
  mutable delta_bytes : int;  (* their share of [checkpoint_bytes] *)
  (* Recovery time accumulates as a float and is rounded ONCE at each
     read: summing per-recovery ceilings would overstate a node that
     recovers many times by up to a millisecond each. [recovery_ms_ticked]
     is what the metrics registry has already been told, so ticks carry
     only the rounded delta. *)
  mutable recovery_s : float;
  mutable recovery_ms_ticked : int;
  mutable queries_degraded : int;
  mutable disk : disk option;
}

type node_stats = {
  crashes : int;
  wal_bytes : int;
  wal_entries : int;
  checkpoints : int;
  checkpoint_bytes : int;
  delta_cuts : int;
  delta_bytes : int;
  recovery_ms : int;
  queries_degraded : int;
}

type t = {
  backend : Backend.t;
  runtime : Runtime.t;
  control : Transport.crash_control;
  config : config;
  logs : node_log array;
  from_disk : bool array;
      (* Nodes whose log was loaded from an existing on-disk state at
         attach; their volatile state is rebuilt by {!recover}, not
         sealed into a fresh checkpoint 0. *)
  recovering : bool array;
      (* Recovery replays the journal through the same code paths that
         produced it; this per-node flag keeps those paths from appending
         the entries a second time. Per-node rather than global: on a
         sharded transport one node's recovery must not suppress the
         journaling of live nodes on other shards. *)
}

let fresh_log () =
  {
    checkpoint = None;
    deltas = [];
    wal = [];
    wal_entries = 0;
    boundaries = 0;
    pending = S.writer ();
    pending_entries = 0;
    pending_bytes = 0;
    crashes = 0;
    wal_bytes = 0;
    checkpoints = 0;
    checkpoint_bytes = 0;
    delta_cuts = 0;
    delta_bytes = 0;
    recovery_s = 0.0;
    recovery_ms_ticked = 0;
    queries_degraded = 0;
    disk = None;
  }

(* ---- the on-disk format (dpc-manifest-v1 / dpc-cut-v1) --------------- *)

let manifest_magic = "dpc-manifest-v1"
let cut_magic = "dpc-cut-v1"
let wal_path dir epoch = Filename.concat dir (Printf.sprintf "wal-%d.log" epoch)
let cut_path dir id = Filename.concat dir (Printf.sprintf "cut-%d.bin" id)
let manifest_path dir = Filename.concat dir "manifest"
let node_dir root node = Filename.concat root (Printf.sprintf "node-%d" node)

(* A decoded artifact must end where its last field does: trailing bytes
   mean a torn or spliced file, never a format this code wrote. *)
let expect_end r what = if not (S.at_end r) then raise (S.Corrupt ("trailing bytes in " ^ what))

let write_manifest d =
  File_io.write_file_atomic (manifest_path d.dir)
    (S.with_scratch (fun w ->
         S.write_string w manifest_magic;
         S.write_varint w d.epoch;
         S.write_varint w d.base_id;
         S.write_list w (S.write_varint w) d.delta_ids))

let read_manifest dir =
  let r = S.reader (File_io.read_file (manifest_path dir)) in
  let m = S.read_string r in
  if m <> manifest_magic then raise (S.Corrupt (Printf.sprintf "manifest: bad magic %S" m));
  let epoch = S.read_varint r in
  let base_id = S.read_varint r in
  let delta_ids = S.read_list r (fun () -> S.read_varint r) in
  expect_end r "manifest";
  (epoch, base_id, delta_ids)

let write_cut dir id ~is_delta (c : checkpoint) =
  File_io.write_file_atomic (cut_path dir id)
    (S.with_scratch (fun w ->
         S.write_string w cut_magic;
         S.write_bool w is_delta;
         S.write_string w c.store;
         S.write_string w c.db;
         match c.channels with
         | None -> S.write_bool w false
         | Some s ->
             S.write_bool w true;
             S.write_string w s))

let read_cut dir id =
  let r = S.reader (File_io.read_file (cut_path dir id)) in
  let m = S.read_string r in
  if m <> cut_magic then raise (S.Corrupt (Printf.sprintf "cut %d: bad magic %S" id m));
  let is_delta = S.read_bool r in
  let store = S.read_string r in
  let db = S.read_string r in
  let channels = if S.read_bool r then Some (S.read_string r) else None in
  expect_end r (Printf.sprintf "cut %d" id);
  (is_delta, { store; db; channels })

(* Drop files a crash between manifest commit and cleanup left behind.
   A host may keep its own ledger in the same directory; the sweep keeps
   it (a torn compaction's [.tmp] of it is fair game). *)
let sweep_unreferenced d =
  let referenced name =
    name = "manifest" || name = "outbox.log"
    || name = Filename.basename (wal_path d.dir d.epoch)
    || List.exists
         (fun id -> name = Filename.basename (cut_path d.dir id))
         (d.base_id :: d.delta_ids)
  in
  Array.iter
    (fun name ->
      let is_ours =
        String.length name >= 4
        && (String.sub name 0 4 = "cut-" || String.sub name 0 4 = "wal-"
           || Filename.check_suffix name ".tmp")
      in
      if is_ours && not (referenced name) then
        try Unix.unlink (Filename.concat d.dir name) with _ -> ())
    (Sys.readdir d.dir)

let metrics t node = Node.metrics (Runtime.node t.runtime node)

let recovery_ms_of log = int_of_float (ceil (log.recovery_s *. 1000.))

(* Close the open entry group: one wal append, one metrics tick. *)
let flush_group t node =
  let log = t.logs.(node) in
  if log.pending_entries > 0 then begin
    let blob = S.contents log.pending in
    log.wal <- blob :: log.wal;
    (match log.disk with None -> () | Some d -> File_io.write_all d.wal_fd blob);
    S.reset log.pending;
    log.pending_entries <- 0;
    Metrics.incr (metrics t node) ~by:log.pending_bytes "crash.wal_bytes";
    log.pending_bytes <- 0
  end

let cut_bytes c =
  String.length c.store + String.length c.db
  + match c.channels with Some s -> String.length s | None -> 0

(* A cut is a DELTA while a base exists and fewer than [rebase_every - 1]
   deltas follow it; the next cut after that rebases to a fresh full
   checkpoint, bounding recovery to one base + (rebase_every - 1) deltas
   + the wal. [rebase_every <= 1] means every cut is full. *)
let take_checkpoint t node =
  flush_group t node;
  let log = t.logs.(node) in
  let channels = (Runtime.channels t.runtime).snapshot ~node in
  let as_delta =
    log.checkpoint <> None
    && t.config.rebase_every > 1
    && List.length log.deltas < t.config.rebase_every - 1
  in
  let db =
    let d = Runtime.db t.runtime node in
    if as_delta then Db.snapshot_delta d else Db.snapshot d
  in
  let cut =
    if as_delta then begin
      let c = { store = Backend.checkpoint_delta t.backend node; db; channels } in
      log.deltas <- c :: log.deltas;
      c
    end
    else begin
      let c = { store = Backend.checkpoint_node t.backend node; db; channels } in
      log.checkpoint <- Some c;
      log.deltas <- [];
      c
    end
  in
  (match log.disk with
  | None -> ()
  | Some d ->
      (* Commit protocol: cut file and fresh wal first, manifest rename
         second (the commit point), fd switch and cleanup last. A crash
         before the rename leaves the previous generation complete — the
         old wal file was never touched; one after it leaves stray files
         that [sweep_unreferenced] collects on the next load. *)
      let id = d.next_cut in
      d.next_cut <- id + 1;
      write_cut d.dir id ~is_delta:as_delta cut;
      let old_epoch = d.epoch in
      let old_base = d.base_id in
      let old_deltas = d.delta_ids in
      let epoch = d.epoch + 1 in
      let fd =
        Unix.openfile (wal_path d.dir epoch) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      if as_delta then d.delta_ids <- d.delta_ids @ [ id ] else begin
        d.base_id <- id;
        d.delta_ids <- []
      end;
      d.epoch <- epoch;
      write_manifest d;
      (try Unix.close d.wal_fd with _ -> ());
      d.wal_fd <- fd;
      (try Unix.unlink (wal_path d.dir old_epoch) with _ -> ());
      if not as_delta then
        List.iter
          (fun old -> if old >= 0 then try Unix.unlink (cut_path d.dir old) with _ -> ())
          (old_base :: old_deltas));
  log.wal <- [];
  log.wal_entries <- 0;
  log.boundaries <- 0;
  log.checkpoints <- log.checkpoints + 1;
  let bytes = cut_bytes cut in
  log.checkpoint_bytes <- log.checkpoint_bytes + bytes;
  if as_delta then begin
    log.delta_cuts <- log.delta_cuts + 1;
    log.delta_bytes <- log.delta_bytes + bytes
  end;
  let m = metrics t node in
  Metrics.incr m "crash.checkpoints";
  Metrics.incr m ~by:bytes "crash.checkpoint_bytes"

(* WAL-then-apply: called before the entry's effects. A boundary entry
   marks the start of a fresh top-level operation — everything before it
   has fully applied — so the open group is flushed and compaction cuts
   the checkpoint just BEFORE buffering it: the checkpoint covers the old
   wal, the new wal starts with this entry's group. *)
let append t node entry =
  if not t.recovering.(node) then begin
    let log = t.logs.(node) in
    if Journal.is_boundary entry then begin
      flush_group t node;
      if t.config.checkpoint_every > 0 && log.boundaries >= t.config.checkpoint_every
      then take_checkpoint t node;
      log.boundaries <- log.boundaries + 1
    end;
    let before = S.size log.pending in
    Journal.write log.pending entry;
    let len = S.size log.pending - before in
    log.pending_entries <- log.pending_entries + 1;
    log.pending_bytes <- log.pending_bytes + len;
    log.wal_entries <- log.wal_entries + 1;
    log.wal_bytes <- log.wal_bytes + len
  end

let on_channel_event t (ev : Dpc_net.Chan.event) =
  match ev with
  | Next_seq { src; dst; seq } -> append t src (Journal.Next_seq { peer = dst; seq })
  | Expected { src; dst; seq } -> append t dst (Journal.Expected { peer = src; seq })

(* Rebuild a node's in-memory log from its directory. The wal's valid
   prefix is kept and the file is rewritten clean before reopening for
   append — a torn tail (the kill landed mid-write) was never covered by
   an outgoing ack, so dropping it loses nothing anyone was promised. *)
let load_disk_state t node dir =
  let log = t.logs.(node) in
  let epoch, base_id, delta_ids = read_manifest dir in
  let base =
    let is_delta, c = read_cut dir base_id in
    if is_delta then raise (S.Corrupt (Printf.sprintf "manifest base cut %d is a delta" base_id));
    c
  in
  let deltas =
    List.map
      (fun id ->
        let is_delta, c = read_cut dir id in
        if not is_delta then
          raise (S.Corrupt (Printf.sprintf "manifest delta cut %d is a full checkpoint" id));
        c)
      delta_ids
  in
  log.checkpoint <- Some base;
  log.deltas <- List.rev deltas;
  let wpath = wal_path dir epoch in
  let entries =
    if Sys.file_exists wpath then begin
      let r = S.reader (File_io.read_file wpath) in
      let acc = ref [] in
      (try
         while not (S.at_end r) do
           acc := Journal.read r :: !acc
         done
       with S.Corrupt _ -> ());
      List.rev !acc
    end
    else []
  in
  let blob = S.with_scratch (fun w -> List.iter (Journal.write w) entries) in
  File_io.write_file_atomic wpath blob;
  if entries <> [] then log.wal <- [ blob ];
  log.wal_entries <- List.length entries;
  log.boundaries <- List.length (List.filter Journal.is_boundary entries);
  log.wal_bytes <- String.length blob;
  log.checkpoints <- 1 + List.length delta_ids;
  let d =
    {
      dir;
      wal_fd = Unix.openfile wpath [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
      epoch;
      base_id;
      delta_ids;
      next_cut = 1 + List.fold_left max base_id delta_ids;
    }
  in
  log.disk <- Some d;
  sweep_unreferenced d

let init_disk_state t node dir =
  File_io.mkdir_p dir;
  let d =
    {
      dir;
      wal_fd = Unix.openfile (wal_path dir 0) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644;
      epoch = 0;
      base_id = -1;
      delta_ids = [];
      next_cut = 0;
    }
  in
  t.logs.(node).disk <- Some d

let attach ~backend ~runtime ~control ?(config = default_config) ?disk
    ?(disk_nodes = fun _ -> true) () =
  if config.checkpoint_every < 0 then
    invalid_arg "Durable.attach: checkpoint_every must be non-negative";
  if config.rebase_every < 0 then
    invalid_arg "Durable.attach: rebase_every must be non-negative";
  let n = Array.length (Runtime.nodes runtime) in
  let t =
    {
      backend;
      runtime;
      control;
      config;
      logs = Array.init n (fun _ -> fresh_log ());
      from_disk = Array.make n false;
      recovering = Array.make n false;
    }
  in
  (match disk with
  | None -> ()
  | Some root ->
      File_io.mkdir_p root;
      Array.iteri
        (fun node _ ->
          if disk_nodes node then begin
            let dir = node_dir root node in
            if Sys.file_exists (manifest_path dir) then begin
              load_disk_state t node dir;
              t.from_disk.(node) <- true
            end
            else init_disk_state t node dir
          end)
        (Runtime.nodes runtime));
  Runtime.set_journal runtime (fun ~node entry -> append t node entry);
  (* Degraded queries count into the durable log like every other
     [crash.*] statistic: the registry tick alone would vanish if the
     QUERIER itself crashed later. [rematerialize] copies it back. *)
  Backend.set_degraded_sink backend (fun querier ->
    let log = t.logs.(querier) in
    log.queries_degraded <- log.queries_degraded + 1;
    Metrics.incr (metrics t querier) "crash.queries_degraded");
  (Runtime.channels runtime).observe (on_channel_event t);
  Runtime.set_availability runtime control.Transport.is_up;
  (* Dirty tracking must be live BEFORE the first cut so every write
     after checkpoint 0 lands in some delta — both the provenance stores
     and each node's relational db. *)
  if config.rebase_every > 1 then begin
    Backend.set_dirty_tracking backend true;
    Array.iteri
      (fun node _ -> Db.set_dirty_tracking (Runtime.db runtime node) true)
      (Runtime.nodes runtime)
  end;
  (* Seal the pre-attach state (slow tables loaded at build time, empty
     stores) into checkpoint 0, so recovery never depends on journal
     entries from before the journal existed. Nodes loaded from disk
     keep their existing generation — their volatile state is rebuilt by
     {!recover}, and cutting a fresh checkpoint of the still-empty world
     here would overwrite it. *)
  Array.iteri
    (fun node _ -> if not t.from_disk.(node) then take_checkpoint t node)
    (Runtime.nodes runtime);
  t

let is_up t node = t.control.Transport.is_up node

let rematerialize t node =
  let m = metrics t node in
  let log = t.logs.(node) in
  if log.crashes > 0 then Metrics.incr m ~by:log.crashes "crash.crashes";
  (* Bytes still sitting in the open group have not been ticked yet; the
     registry stays behind by exactly that much until the next flush. *)
  let ticked_wal = log.wal_bytes - log.pending_bytes in
  if ticked_wal > 0 then Metrics.incr m ~by:ticked_wal "crash.wal_bytes";
  if log.checkpoints > 0 then Metrics.incr m ~by:log.checkpoints "crash.checkpoints";
  if log.checkpoint_bytes > 0 then Metrics.incr m ~by:log.checkpoint_bytes "crash.checkpoint_bytes";
  if log.recovery_ms_ticked > 0 then Metrics.incr m ~by:log.recovery_ms_ticked "crash.recovery_ms";
  if log.queries_degraded > 0 then
    Metrics.incr m ~by:log.queries_degraded "crash.queries_degraded"

let crash t node =
  if is_up t node then begin
    (* The open group reaches the wal before the node state dies — the
       simulated WAL is durable, the group buffer is just batching. *)
    flush_group t node;
    t.control.Transport.crash node;
    Node.reset (Runtime.node t.runtime node);
    (Runtime.channels t.runtime).forget ~node;
    let log = t.logs.(node) in
    log.crashes <- log.crashes + 1;
    rematerialize t node
  end

(* The recovery core shared by in-process [restart] and real-process
   [recover]: restore the newest cut chain, then replay the wal tail. *)
let rebuild t node =
  let log = t.logs.(node) in
  t.recovering.(node) <- true;
  Fun.protect
    ~finally:(fun () -> t.recovering.(node) <- false)
    (fun () ->
      (match log.checkpoint with
      | None -> ()
      | Some base ->
          Backend.restore_node t.backend node base.store;
          (* Store and db: base plus deltas, oldest first. Channels:
             every cut carries a full snapshot, so only the newest
             matters. *)
          let db = Runtime.db t.runtime node in
          Db.load db base.db;
          List.iter
            (fun (d : checkpoint) ->
              Backend.apply_delta t.backend node d.store;
              Db.apply_delta db d.db)
            (List.rev log.deltas);
          let newest = match log.deltas with d :: _ -> d | [] -> base in
          Option.iter ((Runtime.channels t.runtime).restore ~node) newest.channels);
      (* The wal is NOT truncated: a second crash before the next
         compaction replays the same checkpoint plus the same entries
         (and whatever lands after this recovery). Each wal blob is one
         flushed group; decode entries until the group is exhausted. *)
      let entries =
        List.concat_map
          (fun blob ->
            let r = S.reader blob in
            let acc = ref [] in
            while not (S.at_end r) do
              acc := Journal.read r :: !acc
            done;
            List.rev !acc)
          (List.rev log.wal)
      in
      Runtime.replay t.runtime ~node entries)

let tick_recovery t node t0 =
  let log = t.logs.(node) in
  log.recovery_s <- log.recovery_s +. (Clock.now () -. t0);
  let total = recovery_ms_of log in
  if total > log.recovery_ms_ticked then begin
    Metrics.incr (metrics t node) ~by:(total - log.recovery_ms_ticked) "crash.recovery_ms";
    log.recovery_ms_ticked <- total
  end

let restart t node =
  if not (is_up t node) then begin
    (* Wall clock, NOT [Sys.time]: recovery replays on whatever domain
       runs the shard, and CPU time summed across domains both inflates
       multi-domain recoveries and misses time spent blocked. *)
    let t0 = Clock.now () in
    rebuild t node;
    tick_recovery t node t0;
    (* Reconnect the wire last: no delivery can race the rebuild. *)
    t.control.Transport.restart node
  end

let recovered t node = t.from_disk.(node)

let recover t node =
  let t0 = Clock.now () in
  rebuild t node;
  tick_recovery t node t0

let journal t node entry = append t node entry
let flush_wal t node = flush_group t node

let checkpoint_now t node =
  if not (is_up t node) then invalid_arg "Durable.checkpoint_now: node is down";
  take_checkpoint t node

let node_stats t node =
  let log = t.logs.(node) in
  {
    crashes = log.crashes;
    wal_bytes = log.wal_bytes;
    wal_entries = log.wal_entries;
    checkpoints = log.checkpoints;
    checkpoint_bytes = log.checkpoint_bytes;
    delta_cuts = log.delta_cuts;
    delta_bytes = log.delta_bytes;
    recovery_ms = recovery_ms_of log;
    queries_degraded = log.queries_degraded;
  }

let schedule_crash t ~node ~at ~downtime =
  if downtime <= 0.0 then invalid_arg "Durable.schedule_crash: downtime must be positive";
  let tr = Runtime.transport t.runtime in
  let delay_to at = Float.max 0.0 (at -. Transport.now tr) in
  (* On the node's own shard: crash wipes and restart rebuilds state that
     shard owns (tables, registry, channel endpoints). *)
  Transport.schedule_on tr ~node ~delay:(delay_to at) (fun () -> crash t node);
  Transport.schedule_on tr ~node ~delay:(delay_to (at +. downtime)) (fun () -> restart t node)

(* Reject any candidate that overlaps a kept outage of the same node —
   INCLUDING a crash at exactly the previous restart instant ([<=], not
   [<]): the crash and the restart would be scheduled for the same
   simulated time, and which fires first is an event-queue tie, not part
   of the schedule's contract. Kept outages are sorted by crash time and
   stable for a given input. *)
let prune_overlaps ~nodes schedule =
  if nodes <= 0 then invalid_arg "Durable.prune_overlaps: need at least one node";
  let by_time = List.sort (fun (_, a, _) (_, b, _) -> compare a b) schedule in
  let busy_until = Array.make nodes Float.neg_infinity in
  List.filter
    (fun (node, at, downtime) ->
      if node < 0 || node >= nodes then
        invalid_arg "Durable.prune_overlaps: node out of range";
      if at <= busy_until.(node) then false
      else begin
        busy_until.(node) <- at +. downtime;
        true
      end)
    by_time

(* Seeded crash schedules: candidates drawn uniformly, then filtered so
   one node's outages never collide. *)
let random_schedule ~seed ~nodes ~count ~horizon ~min_down ~max_down =
  if nodes <= 0 then invalid_arg "Durable.random_schedule: need at least one node";
  if min_down <= 0.0 || max_down < min_down then
    invalid_arg "Durable.random_schedule: need 0 < min_down <= max_down";
  let rng = Rng.create ~seed in
  let candidates =
    List.init count (fun _ ->
        let node = Rng.int rng nodes in
        let at = Rng.float rng horizon in
        let downtime =
          if max_down = min_down then min_down else min_down +. Rng.float rng (max_down -. min_down)
        in
        (node, at, downtime))
  in
  prune_overlaps ~nodes candidates

let schedule t schedule_list =
  List.iter (fun (node, at, downtime) -> schedule_crash t ~node ~at ~downtime) schedule_list
