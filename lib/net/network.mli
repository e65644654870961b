(** Simulated wide-area internetwork.

    Legion targets "wide-area assemblies of workstations, supercomputers,
    and parallel supercomputers". The network model has two levels of
    aggregation: {e sites} (an organization — campus, lab) containing
    {e hosts}. Latency is three-tier: same host, same site, different
    sites; an optional multiplicative jitter keeps runs deterministic via
    the supplied PRNG.

    Delivery is best-effort datagrams: a message to a down host, a
    message lost to the configured drop rate, or a message to a host with
    no receiver vanishes silently — reliability is the RPC layer's job,
    exactly as Legion layers itself over "standard protocols" (§3.3).

    A network carries messages of one type ['m] as they are, in memory.
    Each send names the payload's {!codec}: its size, charged to
    {!bytes_sent} and to the [Send] event, and its record form, the
    {!Legion_wire.Value.t} that the tap observes and that the corruption
    fault seals into real bytes. *)

type 'm t

type host_id = int
type site_id = int

type watcher
(** Handle for a watcher registered with {!add_host_watcher} or
    {!add_partition_watcher}; pass it to {!remove_watcher} to
    deregister. *)

type latency = {
  intra_host : float;  (** Local IPC between objects of one host. *)
  intra_site : float;  (** Campus LAN. *)
  inter_site : float;  (** Wide-area. *)
  jitter : float;  (** Multiplicative: delay ∈ [l, l·(1+jitter)]. *)
}

val default_latency : latency
(** 5µs / 0.5ms / 40ms, 10% jitter — a 1996-flavoured internet. *)

type 'm codec = {
  size : 'm -> int;
      (** [Value.size_bytes (to_value m)], computed without building the
          record. *)
  to_value : 'm -> Legion_wire.Value.t;  (** The record form. *)
  of_value : Legion_wire.Value.t -> 'm;
      (** Read back a record form that travelled as bytes; total. *)
}
(** A static record, so passing it to {!send} allocates nothing. *)

val value_codec : Legion_wire.Value.t codec
(** The identity codec, for payloads that are already values. *)

val create :
  sim:Legion_sim.Engine.t ->
  prng:Legion_util.Prng.t ->
  ?latency:latency ->
  ?obs:Legion_obs.Recorder.t ->
  unit ->
  'm t
(** [obs], when given, receives a structured event per message
    ([Send], then exactly one of [Deliver]/[Drop]). *)

(** {1 Topology} *)

val add_site : _ t -> name:string -> site_id
val add_host : _ t -> site:site_id -> name:string -> host_id

val site_count : _ t -> int
val host_count : _ t -> int
val hosts : _ t -> host_id list
val hosts_of_site : _ t -> site_id -> host_id list
val site_of : _ t -> host_id -> site_id
val host_name : _ t -> host_id -> string

(** {1 Failure injection} *)

val set_host_up : _ t -> host_id -> bool -> unit
val host_is_up : _ t -> host_id -> bool

val add_host_watcher : _ t -> (host_id -> up:bool -> unit) -> watcher
(** Observe host up/down {e transitions} (calls that do not change the
    state fire nothing). The runtime registers one to reap fenced zombie
    placements when a crashed host reboots; the replica-set repair
    machinery uses others to notice replica hosts going down and coming
    back. Watchers fire in registration order; deregister with
    {!remove_watcher}. *)

val remove_watcher : _ t -> watcher -> unit
(** Deregister a watcher added with {!add_host_watcher} or
    {!add_partition_watcher}. Idempotent — removing an already-removed
    handle is a no-op. Machinery with a teardown path ([Repair.stop])
    must remove its watchers, or repeated setup/teardown cycles leak
    closures that keep firing against dead state. *)

val watcher_count : _ t -> int
(** Currently registered removable watchers (host + partition), for
    leak regression tests. *)

val set_drop_rate : _ t -> float -> unit
(** Fraction of messages lost uniformly at random; default [0.].
    @raise Invalid_argument on NaN or a value outside [0,1]. *)

(** {2 Adversarial faults}

    Beyond loss, a real internet duplicates, reorders, delays, and
    corrupts datagrams. Each adversarial fault is PRNG-driven (so runs
    stay deterministic per seed), emits its own event
    ([Duplicate]/[Reorder]/[CorruptInject]), and keeps its own counter.
    All default off, leaving the pre-adversary behaviour untouched. *)

val set_duplicate_rate : _ t -> float -> unit
(** Probability that a successfully transmitted message is re-injected
    as a second, independent copy with its own latency draw — so the
    copy may overtake the original. The RPC layer's at-least-once
    retransmission means callers must already tolerate duplicates; this
    makes the network itself produce them.
    @raise Invalid_argument on NaN or a value outside [0,1]. *)

val set_reorder : _ t -> rate:float -> window:float -> unit
(** With probability [rate], hold a transmission back by an extra
    uniform draw from [0, window) seconds beyond its modelled latency —
    an adversarial permutation of deliveries within the window. [rate]
    of [0.] or a [window] of [0.] disables it.
    @raise Invalid_argument on a NaN/out-of-range rate or a negative or
    non-finite window. *)

val set_corrupt_rate : _ t -> float -> unit
(** Probability that a transmitted message's record form is sealed in
    the checksummed {!Legion_wire.Envelope} and has 1–3 seeded bytes
    flipped in flight. The receiving side verifies the envelope on
    delivery: any mismatch or decode failure is a counted, fail-closed
    drop ([Drop] with reason [Corrupted]) — never an exception, never a
    garbled delivery. A frame that verifies reaches the receiver through
    its codec's [of_value].
    @raise Invalid_argument on NaN or a value outside [0,1]. *)

val set_delay_spike :
  _ t -> a:site_id -> b:site_id -> factor:float -> until_:float -> unit
(** Multiply the base latency of messages between sites [a] and [b]
    (either direction; [a = b] slows that site's intra-site and
    intra-host traffic) by [factor] until virtual time [until_].
    Overlapping spikes on one link compound; expired spikes are pruned
    lazily.
    @raise Invalid_argument on a bad site id, a [factor] below 1 or
    non-finite, or a NaN [until_]. *)

val clear_delay_spikes : _ t -> unit

val set_partitioned : _ t -> site_id -> site_id -> bool -> unit
(** Sever (or heal) the link between two sites: messages crossing it in
    either direction are silently lost. Intra-site traffic is never
    partitioned. Idempotent. *)

val is_partitioned : _ t -> site_id -> site_id -> bool

val add_partition_watcher :
  _ t -> (site_id -> site_id -> cut:bool -> unit) -> watcher
(** Observe partition {e transitions}: the watcher fires with
    [~cut:true] when a link is newly severed and [~cut:false] when it
    heals (idempotent re-cuts and re-heals fire nothing). The
    anti-entropy machinery hooks heals to trigger replica
    reconciliation, exactly as the runtime's host-up watcher hooks
    reboots to reap zombies. Watchers fire in registration order;
    deregister with {!remove_watcher}. *)

(** {1 Messaging} *)

val set_receiver : 'm t -> host_id -> (src:host_id -> 'm -> unit) -> unit
(** Install the host's delivery upcall (the runtime does this). *)

val send : 'm t -> 'm codec -> src:host_id -> dst:host_id -> 'm -> unit
(** Deliver the payload to [dst]'s receiver after the modelled latency:
    the payload itself, or, if it travelled as corrupted bytes and still
    verifies, [codec.of_value] of the unsealed record. Silently lost
    when either endpoint is down at the relevant instant, when dropped,
    or when [dst] has no receiver. *)

val set_tap :
  _ t -> (src:host_id -> dst:host_id -> Legion_wire.Value.t -> unit) option -> unit
(** Observe every send attempt (before loss/partition filtering) in its
    record form — protocol debugging and test instrumentation. The
    record is built only while a tap is installed. [None] removes it. *)

val latency_between : _ t -> host_id -> host_id -> float
(** Mean one-way latency (jitter excluded). *)

(** {1 Accounting} *)

val messages_sent : _ t -> int
val bytes_sent : _ t -> int

val messages_by_tier : _ t -> int * int * int
(** (intra-host, intra-site, inter-site) message counts. *)

val messages_dropped : _ t -> int
(** Messages lost for any reason — the sum of the {!drop_causes}. *)

type drop_causes = {
  by_rate : int;  (** Uniform random loss ({!set_drop_rate}). *)
  by_down_host : int;  (** Source or destination host was down. *)
  by_partition : int;  (** The site pair was partitioned. *)
  by_no_receiver : int;  (** The destination had no receiver installed. *)
  by_corruption : int;
      (** Failed the end-to-end integrity check after in-flight byte
          corruption ({!set_corrupt_rate}). *)
}

val drop_causes : _ t -> drop_causes
(** Per-cause split of {!messages_dropped}. *)

val messages_duplicated : _ t -> int
(** Extra copies injected by {!set_duplicate_rate}. *)

val messages_reordered : _ t -> int
(** Transmissions held back by {!set_reorder}. *)

val messages_corrupted : _ t -> int
(** Payloads byte-mutated in flight by {!set_corrupt_rate} (counted at
    injection; the resulting receive-side drops are [by_corruption]). *)
