module Heap = Dpc_util.Heap

type event = { at : float; seq : int; action : unit -> unit }

type t = { heap : event Heap.t; mutable clock : float; mutable next_seq : int; mutable processed : int }

let create () =
  {
    heap =
      Heap.create ~cmp:(fun a b ->
        match Float.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c);
    clock = 0.0;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock
let processed t = t.processed
let next_at t = Option.map (fun ev -> ev.at) (Heap.peek t.heap)

let schedule_at t at action =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.heap { at; seq; action }

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Event_queue.schedule: negative delay";
  schedule_at t (t.clock +. delay) action

let rec run ?(until = infinity) t =
  match Heap.peek t.heap with
  | Some ev when ev.at < until ->
      ignore (Heap.pop t.heap);
      t.clock <- Float.max t.clock ev.at;
      t.processed <- t.processed + 1;
      ev.action ();
      run ~until t
  | _ -> ()
