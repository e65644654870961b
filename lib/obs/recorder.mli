(** Ring-buffered event recorder with per-component latency histograms.

    One recorder serves a whole simulation: {!Legion.System.boot}
    attaches it to the network and the runtime, so every emission point
    shares one virtual-time-ordered stream. The ring bounds memory — the
    newest [capacity] events are retained, older ones are overwritten
    (and counted, so tests can detect truncation). *)

type t

val create : ?capacity:int -> clock:(unit -> float) -> unit -> t
(** [capacity] (default 65536) bounds retained events. Every component
    histogram uses log-spaced {!Legion_util.Stats.Histogram} upper
    bounds from 10µs to 10s, sized for the simulated network's three
    latency tiers. [clock] supplies virtual time (pass
    [fun () -> Engine.now sim]).
    @raise Invalid_argument when [capacity <= 0]. *)

val emit : t -> ?host:int -> ?site:int -> Event.kind -> unit
(** Stamp the kind with the clock and append it. O(1); a no-op while
    disabled. *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val events_since : t -> int -> Event.t list
(** Events with sequence number >= the given mark (a prior {!total}),
    oldest first — the still-retained suffix of a stage. *)

val total : t -> int
(** Events emitted over the recorder's lifetime, including overwritten
    ones. Also the next event's sequence number — snapshot it before a
    scenario, pass it to {!events_since} after. *)

val retained : t -> int

val overwritten : t -> int
(** [total - retained]: how many events the ring has forgotten. *)

val clear : t -> unit
(** Forget all events (histograms are kept). *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** {1 Latency histograms} *)

val observe : t -> component:string -> float -> unit
(** Record one latency sample (seconds of virtual time) under the
    component's histogram, creating it on first use. Components in use:
    ["net.delay"] (per-message transit), ["rt.invoke"] (full comm-layer
    invocation round trip), ["rt.resolve"] (Binding Agent resolution). *)

val latency : t -> component:string -> Legion_util.Stats.Histogram.h option

val latencies : t -> (string * Legion_util.Stats.Histogram.h) list
(** All component histograms, sorted by component name. *)
