(* Span recorder for the traced run.

   Every boundary call the benchmark wraps records a span: layer, start,
   end, parent span, and a tag (the event id of a store hook, the index
   of a query). Each domain owns its accumulators and span buffer, so the
   wrappers need no lock on the sharded workload; [merge] sums them after
   [Runtime.run] has returned (the transport's merge barrier).

   A span's self time is its duration minus the time its child spans
   cover; children are whatever wrapped call runs inside it on the same
   domain (a store hook inside a delivery callback, a journal append
   inside a restart). *)

type layer =
  | Deliver  (** a transport callback: delivery or timer *)
  | On_input
  | On_fire
  | On_output
  | On_slow_update
  | Journal  (** [Durable.journal], including the checkpoint cuts it triggers *)
  | Query  (** one [Backend.query] call *)
  | Restart  (** one [Durable.restart] call *)

(* Monotonic, nanosecond resolution: a query takes a few microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let layers = [| Deliver; On_input; On_fire; On_output; On_slow_update; Journal; Query; Restart |]
let n_layers = Array.length layers

let index = function
  | Deliver -> 0
  | On_input -> 1
  | On_fire -> 2
  | On_output -> 3
  | On_slow_update -> 4
  | Journal -> 5
  | Query -> 6
  | Restart -> 7

let name = function
  | Deliver -> "net.deliver"
  | On_input -> "store.on_input"
  | On_fire -> "store.on_fire"
  | On_output -> "store.on_output"
  | On_slow_update -> "store.on_slow_update"
  | Journal -> "durable.journal"
  | Query -> "query"
  | Restart -> "durable.restart"

(* Spans kept per domain for the trace file; the accumulators keep
   counting past the cap. *)
let span_cap = 50_000
let max_depth = 64
let no_tag = Dpc_util.Sha1.digest_string ""

type acc = {
  calls : int array;
  busy : float array;
  self : float array;
  mutable sends : int;
  mutable broadcasts : int;
  (* open-span stack *)
  mutable depth : int;
  st_start : float array;
  st_child : float array;
  st_id : int array;
  (* recorded spans *)
  domain : int;
  mutable next_id : int;
  mutable n : int;
  mutable dropped : int;
  sp_id : int array;
  sp_parent : int array;
  sp_layer : int array;
  sp_start : float array;
  sp_end : float array;
  sp_evid : Dpc_util.Sha1.t array;
  sp_num : int array;
}

let fresh_acc domain =
  {
    calls = Array.make n_layers 0;
    busy = Array.make n_layers 0.0;
    self = Array.make n_layers 0.0;
    sends = 0;
    broadcasts = 0;
    depth = 0;
    st_start = Array.make max_depth 0.0;
    st_child = Array.make max_depth 0.0;
    st_id = Array.make max_depth (-1);
    domain;
    next_id = 0;
    n = 0;
    dropped = 0;
    sp_id = Array.make span_cap 0;
    sp_parent = Array.make span_cap 0;
    sp_layer = Array.make span_cap 0;
    sp_start = Array.make span_cap 0.0;
    sp_end = Array.make span_cap 0.0;
    sp_evid = Array.make span_cap no_tag;
    sp_num = Array.make span_cap 0;
  }

(* Every accumulator ever created, for [merge] and [write]. Registration
   is the only shared write, once per domain. *)
let registry : acc list ref = ref []
let registry_lock = Mutex.create ()
let generation = Atomic.make 0

let key : (int * acc option) Domain.DLS.key = Domain.DLS.new_key (fun () -> (-1, None))

let acc () =
  let gen = Atomic.get generation in
  match Domain.DLS.get key with
  | g, Some a when g = gen -> a
  | _ ->
      let a = fresh_acc (Domain.self () :> int) in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      Domain.DLS.set key (gen, Some a);
      a

(* Drop every accumulator: the next span on each domain starts afresh. *)
let reset () =
  Mutex.protect registry_lock (fun () -> registry := []);
  Atomic.incr generation

let enter a =
  let d = a.depth in
  if d >= max_depth then failwith "Trace: span nesting too deep";
  a.st_start.(d) <- now ();
  a.st_child.(d) <- 0.0;
  a.st_id.(d) <- a.next_id;
  a.next_id <- a.next_id + 1;
  a.depth <- d + 1

let leave a layer evid num =
  let t1 = now () in
  let d = a.depth - 1 in
  a.depth <- d;
  let dur = t1 -. a.st_start.(d) in
  let i = index layer in
  a.calls.(i) <- a.calls.(i) + 1;
  a.busy.(i) <- a.busy.(i) +. dur;
  a.self.(i) <- a.self.(i) +. (dur -. a.st_child.(d));
  if d > 0 then a.st_child.(d - 1) <- a.st_child.(d - 1) +. dur;
  if a.n < span_cap then begin
    let k = a.n in
    a.sp_id.(k) <- a.st_id.(d);
    a.sp_parent.(k) <- (if d > 0 then a.st_id.(d - 1) else -1);
    a.sp_layer.(k) <- i;
    a.sp_start.(k) <- a.st_start.(d);
    a.sp_end.(k) <- t1;
    a.sp_evid.(k) <- evid;
    a.sp_num.(k) <- num;
    a.n <- k + 1
  end
  else a.dropped <- a.dropped + 1

let span ?(evid = no_tag) ?(num = -1) layer f =
  let a = acc () in
  enter a;
  match f () with
  | v ->
      leave a layer evid num;
      v
  | exception e ->
      leave a layer evid num;
      raise e

(* A span whose event id is known only from the call's result, as for
   [on_input], which computes the event's meta. *)
let span_result layer f tag_of =
  let a = acc () in
  enter a;
  match f () with
  | v ->
      leave a layer (tag_of v) (-1);
      v
  | exception e ->
      leave a layer no_tag (-1);
      raise e

let count_send () =
  let a = acc () in
  a.sends <- a.sends + 1

let count_broadcast () =
  let a = acc () in
  a.broadcasts <- a.broadcasts + 1

(* Summed over domains. Call only outside [Runtime.run]. *)
type totals = {
  t_calls : int array;
  t_busy : float array;
  t_self : float array;
  t_sends : int;
  t_broadcasts : int;
  t_spans : int;
  t_dropped : int;
}

let merge () =
  let accs = Mutex.protect registry_lock (fun () -> !registry) in
  let sum f = Array.init n_layers (fun i -> List.fold_left (fun s a -> s +. (f a).(i)) 0.0 accs) in
  {
    t_calls =
      Array.init n_layers (fun i -> List.fold_left (fun s a -> s + a.calls.(i)) 0 accs);
    t_busy = sum (fun a -> a.busy);
    t_self = sum (fun a -> a.self);
    t_sends = List.fold_left (fun s a -> s + a.sends) 0 accs;
    t_broadcasts = List.fold_left (fun s a -> s + a.broadcasts) 0 accs;
    t_spans = List.fold_left (fun s a -> s + a.n) 0 accs;
    t_dropped = List.fold_left (fun s a -> s + a.dropped) 0 accs;
  }

let diff (a : totals) (b : totals) =
  {
    t_calls = Array.mapi (fun i x -> x - b.t_calls.(i)) a.t_calls;
    t_busy = Array.mapi (fun i x -> x -. b.t_busy.(i)) a.t_busy;
    t_self = Array.mapi (fun i x -> x -. b.t_self.(i)) a.t_self;
    t_sends = a.t_sends - b.t_sends;
    t_broadcasts = a.t_broadcasts - b.t_broadcasts;
    t_spans = a.t_spans - b.t_spans;
    t_dropped = a.t_dropped - b.t_dropped;
  }

let calls t l = t.t_calls.(index l)
let busy t l = t.t_busy.(index l)
let self t l = t.t_self.(index l)

(* One line per span, times in microseconds from [origin]:
   domain id parent layer start_us end_us tag *)
let write ~origin path =
  let accs = Mutex.protect registry_lock (fun () -> List.rev !registry) in
  let oc = open_out path in
  output_string oc "# domain\tid\tparent\tlayer\tstart_us\tend_us\ttag\n";
  List.iter
    (fun a ->
      for k = 0 to a.n - 1 do
        let tag =
          if a.sp_num.(k) >= 0 then string_of_int a.sp_num.(k)
          else if a.sp_evid.(k) == no_tag then "-"
          else Dpc_util.Sha1.abbrev a.sp_evid.(k)
        in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%s\n" a.domain a.sp_id.(k)
          a.sp_parent.(k)
          (name layers.(a.sp_layer.(k)))
          ((a.sp_start.(k) -. origin) *. 1e6)
          ((a.sp_end.(k) -. origin) *. 1e6)
          tag
      done)
    accs;
  close_out oc
