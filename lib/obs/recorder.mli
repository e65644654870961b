(** Ring-buffered event recorder with per-kind counters and
    per-component latency histograms.

    One recorder serves a whole simulation: {!Legion.System.boot}
    attaches it to the network and the runtime, so every emission point
    shares one virtual-time-ordered stream. The ring bounds memory — the
    newest [capacity] events are retained, older ones are overwritten
    (and counted, so tests can detect truncation).

    The ring keeps no [Event.t] values. Each slot is a set of flat
    fields: its time in a float array, and the fields of the seven
    commonest kinds ([Send], [Deliver], [Reply], [Call], [Cache_hit],
    [Cache_miss], [Admit]) in int, LOID and string arrays. Any other
    kind keeps its boxed value. The arrays start small and double as
    events arrive, up to [capacity] slots, so a large capacity costs
    memory only once it is used. Reading the ring back ({!events},
    {!fold_since}) rebuilds each event: the result is [=] to the event
    emitted and hashes the same, but is a fresh value, not the one
    passed to {!emit}. *)

type t

val create : ?capacity:int -> clock:(unit -> float) -> unit -> t
(** [capacity] (default 65536) bounds retained events. Every component
    histogram uses log-spaced {!Legion_util.Stats.Histogram} upper
    bounds from 10µs to 10s, sized for the simulated network's three
    latency tiers. [clock] supplies virtual time (pass
    [fun () -> Engine.now sim]).
    @raise Invalid_argument when [capacity <= 0]. *)

val emit : t -> ?host:int -> ?site:int -> Event.kind -> unit
(** Stamp the kind with the clock, count it under its {!Event.name} and
    store it in the next slot. O(1) apart from the occasional doubling
    of the arrays. A flat kind's fields are copied into the arrays, so
    the ring keeps no reference to the kind value; another kind, or a
    flat one whose host or site is negative or too large to pack, is
    kept as is. A no-op while disabled. *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val events_since : t -> int -> Event.t list
(** Events with sequence number >= the given mark (a prior {!total}),
    oldest first — the still-retained suffix of a stage.
    [events_since t m = List.rev (fold_since t m (fun l e -> e :: l) [])]. *)

val fold_since : t -> int -> ('a -> Event.t -> 'a) -> 'a -> 'a
(** Fold over the events {!events_since} returns, oldest first,
    rebuilding one event at a time and building no list. The function
    must not emit into the same recorder. *)

val count : t -> string -> int
(** How many events of the kind with this {!Event.name} were emitted
    over the recorder's lifetime, overwritten ones included. Like
    {!total}, the count is reset by {!clear} and does not move while the
    recorder is disabled; a stage subtracts its count at a mark from its
    count at the end.
    @raise Invalid_argument when no kind has this name. *)

val total : t -> int
(** Events emitted over the recorder's lifetime, including overwritten
    ones. Also the next event's sequence number — snapshot it before a
    scenario, pass it to {!events_since} after. *)

val retained : t -> int

val overwritten : t -> int
(** [total - retained]: how many events the ring has forgotten. *)

val clear : t -> unit
(** Forget all events and reset {!total} and every {!count} to zero
    (histograms are kept). *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** {1 Latency histograms} *)

val observe : t -> component:string -> float -> unit
(** Record one latency sample (seconds of virtual time) under the
    component's histogram, creating it on first use. Components in use:
    ["rt.resolve"] (Binding Agent resolution), ["rt.recovery"] (the
    round trip of a call that needed a retransmission) and ["rt.mttr"]
    ([ConfirmDead] to the next call delivered to the object). *)

val latency : t -> component:string -> Legion_util.Stats.Histogram.h option

val latencies : t -> (string * Legion_util.Stats.Histogram.h) list
(** All component histograms, sorted by component name. *)
