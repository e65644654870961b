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
    hot paths that never cancel (workload arrivals, script ticks) skip
    that allocation. *)

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

(** {1 Token dispatch}

    The zero-allocation delivery path. A subsystem that schedules very
    many homogeneous events (the network's message deliveries) can
    register one dispatch function and then schedule bare integer
    tokens: no closure, no handle — the pooled event record is the
    only storage, and the token typically indexes the subsystem's own
    pool. One dispatcher per engine: the engine is single-owner by
    construction (every [Network.create] builds its own engine). *)

val set_dispatch : t -> (int -> unit) -> unit
(** Install the token dispatcher.
    @raise Invalid_argument if one is already installed. *)

val post_token : t -> delay:float -> int -> unit
(** Schedule the dispatcher to run with the given token (which must be
    [>= 0]) after [delay] (clamped to [0.] like {!schedule}). *)
