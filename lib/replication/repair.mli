(** Self-healing replica sets (§4.3 made durable).

    {!Replicate} builds the multi-address Object Address but leaves it
    static: lose a replica's host and the set silently runs degraded
    until a second loss kills the object. This module is the manager
    that closes the loop — it owns the replica set of one LOID and
    restores the replication factor whenever a member is confirmed
    dead:

    + detect — a {!Legion_net.Network} host-down transition (instant
      path) or [miss_threshold] consecutive failed probes in a periodic
      {!sweep} (backstop for silent failures) confirm a replica dead; a
      [ReplicaLost] event is traced and the MTTR clock starts;
    + copy — the freshest surviving state is pulled with [SaveState]
      over the survivor's own single-element address (every survivor
      acked every committed write, so the first answer is current);
    + fence — {!Legion_rt.Runtime.bump_epoch} opens a new incarnation:
      the dead placement and any stale cached address now answer
      [Stale_epoch], while {!Legion_rt.Runtime.refresh_epoch} carries
      the legitimate survivors across;
    + replace — the copied state is activated on a spare host (up, not
      already hosting a member) under the new epoch, the rebuilt
      multi-element address is re-registered with the responsible
      class, and a [ReplicaRepair] event closes the episode.

    Anti-entropy for application-level groups rides the same watcher
    idiom: {!reconcile_on_heal} hooks partition heals to sweep
    [Reconcile] over {!Group_part} heads, draining post-partition
    divergence to zero. *)

module Loid := Legion_naming.Loid
module Address := Legion_naming.Address
module Network := Legion_net.Network
module Runtime := Legion_rt.Runtime
module Err := Legion_rt.Err
module Opr := Legion_core.Opr

type t
(** The manager for one replicated LOID. *)

val deploy :
  ctx:Runtime.ctx ->
  net:Runtime.incoming Network.t ->
  loid:Loid.t ->
  opr:Opr.t ->
  hosts:Network.host_id list ->
  pool:Network.host_id list ->
  semantic:Address.semantic ->
  ?register_with:Loid.t ->
  ?miss_threshold:int ->
  ((t, Err.t) result -> unit) ->
  unit
(** Activate one replica per host (via {!Replicate.deploy}), register
    the multi-element address with [register_with] when given, and
    return the armed-but-idle manager. [pool] lists candidate
    replacement hosts (a superset of [hosts] is fine — occupied ones
    are skipped). [miss_threshold] (default 2) is the consecutive
    probe-miss count that confirms a replica dead. *)

val start : t -> period:float -> until:float -> unit
(** Arm the manager: install the host-down watcher and schedule
    probe {!sweep}s every [period] seconds until [until]. *)

val stop : t -> unit
(** Disarm: scheduled sweeps become no-ops and the host-down watcher is
    deregistered from the network (a later {!start} re-installs it), so
    repeated start/stop cycles do not accumulate watcher closures. *)

val sweep : t -> (int -> unit) -> unit
(** One failure-detection pass; the continuation receives the number
    of repairs performed. No-op (0) while stopped. *)

val address : t -> Address.t
(** The current multi-element Object Address of the set. *)

val replica_count : t -> int
val replica_hosts : t -> Network.host_id list

val losses : t -> int
val repairs : t -> int
(** Lifetime counters of confirmed losses and completed repairs. *)

val reconcile_on_heal :
  Runtime.ctx -> net:Runtime.incoming Network.t -> groups:Loid.t list -> Network.watcher
(** Install a partition watcher that, on every heal transition, invokes
    [Reconcile] on each listed {!Group_part} head — the anti-entropy
    trigger that converges divergent members once connectivity returns.
    Returns the watcher handle; callers that outlive their group set
    must pass it to {!Network.remove_watcher}, otherwise each call
    leaks a permanently firing closure. *)
