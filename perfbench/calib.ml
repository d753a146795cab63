(* Host-speed calibration for the wall-clock metrics.

   The benchmark shares its host with other tenants. On a shared 2-vCPU
   VM (Intel Xeon, 2.0 GHz) the host's speed swings by up to 2x for tens
   of seconds at a time: a fixed loop of strided array reads ran 27 ms a
   pass in one stretch and 52-55 ms a pass for the next 30 s. A whole
   run can land in a slow stretch, so no run length or estimator makes
   raw wall times repeat from run to run.

   A phase is therefore sampled while it runs: [sample] times one pass of
   a fixed kernel that uses only the OCaml standard library (a little
   string hashing and hash-table traffic, then strided reads over a 2 MB
   array), so no change to the program can change it. [scale] removes the
   sampling time from the phase's wall time and rescales the rest by
   [reference_s / median pass time]: the phase as it would have run on a
   host where one pass takes [reference_s]. On that VM a pass takes
   1.2-2.2 ms, and a round's raw ingest time tracked its pass time with
   correlation 0.94. *)

let reference_s = 0.0015

let table = Array.init (1 lsl 18) (fun i -> i)

let kernel () =
  let h = Hashtbl.create 64 in
  let acc = ref 0 in
  for i = 0 to 299 do
    Hashtbl.replace h ("k" ^ string_of_int (i * 7919)) (i, [ i ]);
    match Hashtbl.find_opt h ("k" ^ string_of_int (i * 13)) with
    | Some (v, _) -> acc := !acc + v
    | None -> ()
  done;
  let mask = Array.length table - 1 in
  for i = 0 to 199_999 do
    acc := !acc + table.((i * 7919) land mask)
  done;
  ignore (Sys.opaque_identity !acc)

(* Locked: on the sharded workload every shard's domain samples. *)
type t = { mutable passes : float list; mutable spent : float; lock : Mutex.t }

let create () = { passes = []; spent = 0.0; lock = Mutex.create () }

let sample t =
  let t0 = Trace.now () in
  kernel ();
  let d = Trace.now () -. t0 in
  Mutex.protect t.lock (fun () ->
    t.passes <- d :: t.passes;
    t.spent <- t.spent +. d)

(* Multiply a wall time measured during the phase by this. *)
let factor t =
  match t.passes with
  | [] -> invalid_arg "Calib.factor: no sample"
  | ps -> reference_s /. List.nth (List.sort compare ps) (List.length ps / 2)

(* The phase's wall time without the sampling, rescaled. *)
let scale t wall = (wall -. t.spent) *. factor t
