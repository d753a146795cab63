(* Timing wrappers installed through the seams the program already
   exposes. None of them changes what the wrapped call does; the
   untraced run installs none of them. *)

open Dpc_engine

(* The store layer: every [Prov_hook.t] callback the runtime makes. *)
let hook (h : Prov_hook.t) : Prov_hook.t =
  {
    h with
    on_input =
      (fun ~node t ->
        Trace.span_result Trace.On_input
          (fun () -> h.on_input ~node t)
          (fun (m : Prov_hook.meta) -> m.evid));
    on_fire =
      (fun ~node ~rule ~event ~slow ~head meta ->
        Trace.span ~evid:meta.Prov_hook.evid Trace.On_fire (fun () ->
          h.on_fire ~node ~rule ~event ~slow ~head meta));
    on_output =
      (fun ~node t meta ->
        Trace.span ~evid:meta.Prov_hook.evid Trace.On_output (fun () ->
          h.on_output ~node t meta));
    on_slow_update =
      (fun ~node ~op t ->
        Trace.span Trace.On_slow_update (fun () -> h.on_slow_update ~node ~op t));
  }

(* The net layer: every callback the base transport runs is a span, so
   the run's wall time splits into callback time (engine, stores,
   journal, and the wrappers above the base) and the transport's own
   event-queue time outside callbacks. Shard ownership passes through
   unchanged. *)
let transport (inner : Dpc_net.Transport.t) : Dpc_net.Transport.t =
  let module I = (val inner) in
  let cb f () = Trace.span Trace.Deliver f in
  (module struct
    let name = I.name
    let nodes = I.nodes
    let shards = I.shards
    let shard_of = I.shard_of
    let now = I.now
    let schedule ~delay f = I.schedule ~delay (cb f)
    let schedule_on ~node ~delay f = I.schedule_on ~node ~delay (cb f)

    let send ~src ~dst ~bytes f =
      Trace.count_send ();
      I.send ~src ~dst ~bytes (cb f)

    let broadcast ~src ~bytes f =
      Trace.count_broadcast ();
      I.broadcast ~src ~bytes (fun n -> Trace.span Trace.Deliver (fun () -> f n))

    let run = I.run
    let total_bytes = I.total_bytes
    let messages = I.messages
  end)

(* The durable layer: re-install the runtime's journal sink with a timed
   call to [Durable.journal], the function [Durable.attach] installs. *)
let journal runtime durable =
  Runtime.set_journal runtime (fun ~node entry ->
    Trace.span Trace.Journal (fun () -> Dpc_core.Durable.journal durable node entry))
