(** The discrete-event queue under {!Sim}, {!Transport.direct} and
    {!Socket}'s timers: callbacks ordered by time, equal times in
    scheduling order. ({!Shard_sim} keeps its own cross-shard order.) *)

type t

val create : unit -> t

val now : t -> float
(** The time of the latest event run (0 before the first). *)

val processed : t -> int
(** Events run so far. *)

val next_at : t -> float option
(** The time of the earliest queued event. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Queue a callback at an absolute time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Queue a callback [delay] after {!now}.
    @raise Invalid_argument on a negative delay. *)

val run : ?until:float -> t -> unit
(** Run queued events in order until the queue is empty or the next one
    is at or past [until]. The horizon is half-open: an event at exactly
    [until] stays queued, so [run ~until:a] then [run ~until:b] runs
    every event in [0, a) then [a, b) exactly once. Events a callback
    queues are run in the same call when they fall before [until]. *)
