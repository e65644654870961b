(** Structured trace events.

    Every mechanism the runtime exercises — message transport, the
    comm-layer binding cache, Binding Agent resolution, rebind-and-retry,
    activation — reifies its steps as typed events, stamped with virtual
    time and the emitting host/site. The Fig. 17 sequences of §4.1 become
    data a test can assert against (see {!Trace}), and
    [legion-sim trace --json] dumps them for external tools. *)

module Loid := Legion_naming.Loid
module Value := Legion_wire.Value

type tier = Intra_host | Intra_site | Inter_site

type drop_reason =
  | Src_down
  | Dst_down
  | Partitioned
  | Random_loss
  | No_receiver
  | Corrupted
      (** The payload failed end-to-end integrity verification at the
          receiving host — a checksum mismatch or undecodable envelope
          after in-flight byte corruption — and was dropped fail-closed. *)

type kind =
  | Send of { src : int; dst : int; bytes : int; tier : tier }
      (** A datagram entered the network (before loss filtering). *)
  | Deliver of { src : int; dst : int }
      (** The datagram reached a live receiver. *)
  | Drop of { src : int; dst : int; reason : drop_reason }
      (** The datagram was lost; exactly one of [Deliver]/[Drop] follows
          every [Send] — except that a [Duplicate] adds extra
          [Deliver]/[Drop] outcomes for the same [Send]. *)
  | Duplicate of { src : int; dst : int }
      (** The network adversary injected an extra copy of the datagram;
          the copy draws its own latency and takes the normal delivery
          path, so it produces its own [Deliver]/[Drop]. *)
  | Reorder of { src : int; dst : int; extra : float }
      (** The adversary held the datagram back by [extra] seconds beyond
          its drawn latency, letting later sends overtake it. *)
  | Corrupt_inject of { src : int; dst : int; mutations : int }
      (** The adversary flipped [mutations] byte(s) of the encoded
          payload in flight; the receiving host's integrity check is
          expected to turn this into a [Drop] with reason [Corrupted]. *)
  | Dedup_hit of { loid : Loid.t; id : int; meth : string }
      (** The runtime recognised call [id] as already executed (or
          executing) at [loid] — a retransmitted or duplicated request —
          and replayed the recorded reply instead of re-running [meth]. *)
  | Call of { id : int; src : Loid.t; dst : Loid.t; meth : string }
      (** The comm layer dispatched one method-call attempt. *)
  | Reply of { id : int; ok : bool }  (** A reply reached the caller. *)
  | Timeout of { id : int }  (** A call attempt's deadline fired. *)
  | Retry of { id : int; attempt : int }
      (** The retry policy retransmitted call [id]; this is transmission
          number [attempt] (the original send was attempt 1). *)
  | Giveup of { id : int; attempts : int }
      (** The retry policy exhausted its attempt/deadline budget after
          [attempts] transmissions; the call fails with [Timeout]. *)
  | Cancel of { id : int }
      (** A pending call was reaped before completing — a racing
          replica's losing attempt after the winner replied. *)
  | Cache_hit of { owner : Loid.t; target : Loid.t }
  | Cache_miss of { owner : Loid.t; target : Loid.t }
      (** Binding-cache lookups, both in an object's comm layer and
          inside a Binding Agent ([owner] distinguishes them). *)
  | Resolve of { owner : Loid.t; target : Loid.t; stale : bool }
      (** [owner] asks the resolution machinery for a binding; [stale]
          is the GetBinding(binding) refresh form of §3.6. *)
  | Binding_install of { owner : Loid.t; target : Loid.t }
      (** A freshly resolved binding entered [owner]'s comm cache. *)
  | Rebind of { owner : Loid.t; target : Loid.t; attempt : int }
      (** §4.1.4: a delivery failure invalidated the binding; attempt
          [attempt] of the refresh-and-retry loop starts. *)
  | Activate of { loid : Loid.t }  (** An instance started on [host]. *)
  | Deactivate of { loid : Loid.t }  (** An instance left [host]. *)
  | Migrate of { loid : Loid.t; dst : Loid.t }
      (** A Magistrate shipped the object's OPR to Magistrate [dst]. *)
  | Replica_fanout of { target : Loid.t; width : int }
      (** One logical call raced [width] address elements. *)
  | Checkpoint of { loid : Loid.t }
      (** A Magistrate sweep refreshed the object's OPR from a live
          [SaveState] without deactivating it. *)
  | Suspect of { host_obj : Loid.t; missed : int }
      (** A heartbeat probe of a Host Object failed; [missed]
          consecutive beats have now been lost. *)
  | Confirm_dead of { host_obj : Loid.t; objects : int }
      (** The missed-beat threshold fired: the Magistrate declares the
          host dead and starts recovery of its [objects] residents. *)
  | Reactivate of { loid : Loid.t }
      (** The responsible class brought a dead instance back from its
          last OPR on a surviving host. *)
  | Fence of { loid : Loid.t; epoch : int; current : int }
      (** The runtime refused a stale placement: either a delivery to a
          placement whose [epoch] is below the LOID's [current] epoch,
          or the reaping of such a zombie when its host reboots. *)
  | Admit of {
      loid : Loid.t;
      meth : string;
      queued : bool;
      tenant : string option;
    }
      (** Admission control accepted a call for an object running under
          an inflight/queue budget; [queued] means it waited in the
          object's admission queue first. Only emitted for budgeted
          objects — unbudgeted delivery stays silent. [tenant] names the
          call's Responsible-Agent tenant when the runtime serves a
          tenant registry; the field is absent from the serialised event
          otherwise, so pre-tenancy streams are unchanged. *)
  | Shed of {
      loid : Loid.t;
      meth : string;
      queue : int;
      tenant : string option;
    }
      (** The call was rejected to protect the object: the admission
          queue was full ([queue] is its length at rejection), the
          caller's tenant budget was exhausted, or the object's
          implementation shed it by policy (a class refusing creates
          under load). The caller sees [Err.Overloaded] — or, for a
          tenant-budget shed, [Err.Quota_exceeded] — with a
          [retry_after] hint. [tenant] attributes the shed to the
          charged tenant; serialised only when present. *)
  | Deny of { loid : Loid.t; meth : string; tenant : string }
      (** Binding-path policy enforcement refused [tenant] outright:
          the target's policy does not clear the call's Responsible
          Agent, so the request — including [GetBinding] resolution —
          fails with the terminal [Err.Denied]. Always tenant-tagged;
          the fallback lane is [~unregistered]. *)
  | Breaker_open of { host : int; failures : int }
      (** The per-destination circuit breaker tripped after [failures]
          consecutive call failures to [host]; calls now fail fast. *)
  | Breaker_probe of { host : int }
      (** The breaker's cooldown elapsed; one probe call is let through
          (HalfOpen). *)
  | Breaker_close of { host : int }
      (** A call to [host] completed while the breaker was Open or
          HalfOpen; the circuit closes and traffic resumes. *)
  | Stale_serve of { owner : Loid.t; target : Loid.t }
      (** Graceful degradation in a Binding Agent: the upstream resolver
          was overloaded, so [owner] served its stale-but-unexpired
          cached binding for [target] instead of failing the lookup. *)
  | Replica_lost of { loid : Loid.t; host : int; remaining : int }
      (** The replica-set manager confirmed a replica of [loid] on
          network host [host] dead; [remaining] replicas survive. *)
  | Replica_repair of { loid : Loid.t; host : int; epoch : int }
      (** The replica-set manager re-activated a replacement replica of
          [loid] on [host] from the newest surviving state, under the
          bumped incarnation [epoch]; the rebuilt multi-address binding
          was re-registered with the responsible class. *)
  | No_quorum of { loid : Loid.t; have : int; need : int }
      (** A fenced group head [loid] rejected a replicated write: only
          [have] of the current membership were reachable, short of the
          strict majority [need]. The caller saw [Err.No_quorum];
          nothing was applied anywhere. *)
  | Reconcile of { loid : Loid.t; divergent : int; updated : int }
      (** Anti-entropy after a partition heal: group head [loid]
          compared member state digests, found [divergent] members
          behind the highest-version survivor, and pushed the winning
          state to [updated] of them. A drained group reconciles with
          [divergent = 0]. *)
  | Clone of { cls : Loid.t; clone : Loid.t }
      (** §5.2.2 made autonomic: class [cls] sustained a high load
          factor, derived clone [clone], and now redirects new Create
          requests to the clone ring. *)
  | Merge of { cls : Loid.t; clone : Loid.t }
      (** Cool-down: class [cls] retired [clone] from its redirect ring
          after sustained low Create demand. The clone object survives —
          it stays responsible for instances it already created — but
          receives no new redirections. *)
  | Split of { magistrate : Loid.t; dst : Loid.t; objects : int }
      (** §2.2 made autonomic: [magistrate]'s Jurisdiction exceeded its
          object budget, so a rebalancer transferred [objects] of its
          residents to the spare Magistrate [dst] (shared storage: OPAs
          stay valid, responsibility moves, bytes do not). *)
  | Probe_fail of { agent : Loid.t; host_obj : Loid.t }
      (** A live-load Scheduling Agent's [GetState] probe of [host_obj]
          failed (timeout, refusal, or undecodable reply); the agent
          falls back to the Magistrate-supplied count for that host. *)
  | Prepare of { txn : string; participant : Loid.t }
      (** Transaction [txn] enlisted [participant]: in 2PC mode the
          participant acknowledged [TxnPrepare] (prepare lock taken,
          yes vote); in saga mode its step was applied. *)
  | Txn_commit of { txn : string; participants : int }
      (** The coordinator fully committed [txn]: every one of its
          [participants] acknowledged the commit (or the final saga
          step applied) and the per-participant history entries are
          marked committed. *)
  | Txn_abort of { txn : string; reason : string }
      (** The coordinator decided to abort [txn] — a participant voted
          no ([reason] names why; ["stale-epoch"] is a fenced
          participant's abort vote) or a saga step failed. Compensation
          of the already-enlisted participants begins. *)
  | Compensate of { txn : string; participant : Loid.t }
      (** Rollback of [participant] under aborted transaction [txn]
          acknowledged: its prepare lock was released (2PC) or its
          typed compensation method applied (saga). *)
  | Resume of { txn : string; decision : string }
      (** Crash recovery re-drove in-doubt transaction [txn] from the
          coordinator's write-ahead log after [Reactivate]: [decision]
          is ["commit"] when the commit decision was already durable
          (committed work is never rolled back) and ["abort"]
          otherwise. *)

type t = {
  time : float;  (** Virtual time of emission. *)
  host : int option;  (** Emitting network host, when known. *)
  site : int option;  (** Its site, when known. *)
  kind : kind;
}

val index : kind -> int
(** The constructor's position in the declaration above, from 0 to
    [kinds - 1]. {!name} goes through it, and so do the recorder's
    per-kind counters, so a name and its counter cannot drift apart. *)

val kinds : int
(** Number of constructors of {!kind}. *)

val name_of_index : int -> string
(** [name_of_index (index k) = name k].
    @raise Invalid_argument outside [0, kinds). *)

val name : kind -> string
(** Stable event name: ["Send"], ["CacheMiss"], ["BindingInstall"], … *)

val to_value : t -> Value.t
(** Flat record: [t], optional [host]/[site], [ev] (the {!name}), then
    the kind's fields. LOIDs render as strings. *)

val to_json : t -> string
(** One-line JSON object, same shape as {!to_value}. *)

val pp : Format.formatter -> t -> unit
(** One human-readable line: time, host, name, fields. *)
