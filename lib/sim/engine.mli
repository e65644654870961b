(** Discrete-event simulation engine.

    A single virtual clock and one binary min-heap of pending events,
    ordered by time and then by scheduling order: events scheduled for
    the same instant fire in scheduling order (FIFO), which together
    with the seeded PRNGs makes every run deterministic.

    The whole Legion runtime is driven by this engine: message delivery,
    RPC timeouts, and workload arrivals are all events. Event records
    are pooled — firing ten million events allocates a bounded working
    set, not ten million records — so handles are generation-checked:
    cancelling a recycled handle is still a safe no-op. Cancelling takes
    the event out of the heap and recycles its record at once, so the
    heap holds only live events.

    Every event time must be finite: scheduling at a NaN or infinite
    time raises [Invalid_argument]. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time, in seconds. Starts at [0.]. *)

type handle
(** A scheduled event, usable to cancel it. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays
    are clamped to [0.] (fire "now", after currently-queued same-time
    events). *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; times in the past are clamped to [now]. *)

val post : t -> delay:float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}: no cancellation handle is built, so
    hot paths that never cancel skip that allocation. Workload arrivals
    and script ticks post here, and so does the network: each pooled
    in-flight message owns the closure that delivers it, made once
    when the record is created, so a delivery allocates nothing. *)

val cancel : handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val is_cancelled : handle -> bool
(** [true] once the handle can no longer fire: it was cancelled, or it
    already fired and its pooled record moved on. *)

val step : t -> bool
(** Fire the earliest pending event. Returns [false] when the queue is
    empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Fire events until the queue is empty, virtual time would exceed
    [until], or [max_events] have fired in this call. Events scheduled at
    exactly [until] still fire. *)

val pending : t -> int
(** Number of queued (uncancelled) events. O(1): the heap's length. *)

val events_fired : t -> int
(** Total events fired since creation. *)
