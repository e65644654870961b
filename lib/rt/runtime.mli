(** The Legion object runtime.

    Legion objects are "independent, address space disjoint objects that
    communicate with one another via method invocation. Method calls are
    non-blocking and may be accepted in any order" (§2). The runtime
    realises this over the simulated internetwork: an {e active} object
    is a process — a (host, slot) pair with a mailbox and a handler —
    and every method invocation is an asynchronous message exchange.

    The runtime also implements the {e Legion-aware communication layer}
    each object contains (§4.1.2): a per-object binding cache, resolution
    through the object's Binding Agent on a miss, stale-binding
    detection on [No_such_object]/timeout, and rebind-and-retry
    (§4.1.4). Replication-aware delivery follows the Object Address
    semantics of §3.4/§4.3. *)

module Loid := Legion_naming.Loid
module Address := Legion_naming.Address
module Binding := Legion_naming.Binding
module Value := Legion_wire.Value
module Env := Legion_sec.Env

type t
(** The runtime: one per simulation, spanning all hosts. *)

type proc
(** An active object instance (a "process" on a host). A replicated
    object has several [proc]s sharing one LOID. *)

type admission = {
  max_inflight : int;
      (** Concurrent calls an object may be executing (handler started,
          reply not yet sent). *)
  max_queue : int;
      (** Calls parked waiting for an inflight slot; arrivals beyond
          this are shed with [Err.Overloaded]. *)
  retry_after_hint : float;
      (** Base of the [retry_after] hint attached to sheds; it scales
          up to 2x with queue fill, so callers back off harder the
          deeper the backlog. *)
}

val default_admission : admission
(** 8 inflight, 32 queued, 50 ms base hint. *)

type config = {
  call_timeout : float;  (** Seconds of virtual time before a call times out. *)
  max_rebinds : int;
      (** How many times the comm layer refreshes a stale binding and
          retries before giving up. *)
  binding_ttl : float option;
      (** Expiry attached to bindings minted by [binding_of]; [None]
          means bindings never explicitly expire (§3.5). *)
  retry : Retry.t;
      (** Retransmission policy for calls running under the default
          [call_timeout] budget: lost messages are resent (same call id,
          at-least-once) under exponentially backed-off, jittered
          attempt windows instead of burning the whole deadline. Calls
          that pass an explicit [?timeout] opt out — that argument is a
          caller-managed single-attempt deadline (probes, deferred-reply
          methods). See {!Retry}. *)
  admission : admission option;
      (** Default inflight/queue budget stamped on every spawned
          {e application} object ([spawn ?admission] overrides per
          object, and budgets any kind; so does {!set_admission}).
          Infrastructure processes serve each other's bring-up and
          binding traffic, where a budget can invert RPC dependency
          order, so they are never budgeted by default — they degrade by
          policy instead ({!load_factor} / {!shed_reply}). [None] — the
          default — admits everything, the pre-overload-control
          behaviour. Budgeted objects emit [Admit]/[Shed] events and
          answer excess load with [Err.Overloaded]. *)
  breaker : Breaker.config option;
      (** Per-destination circuit breakers on the send path ([None] —
          the default — disables them). See {!Breaker}: consecutive
          failures open the circuit, sends then fail fast until a
          cooldown admits a HalfOpen probe. *)
  dedup_capacity : int option;
      (** Exactly-once effects: how many (caller host, call id) entries
          the runtime's exactly-once table ({!Dedup}) keeps, [None] to
          disable; [Some n] with [n <= 0] is rejected by {!create}. A
          retransmitted or network-duplicated request whose call
          already executed (or is executing) is answered from the
          recorded reply — a [DedupHit] event — instead of re-running
          the method, so at-least-once transmission no longer means
          at-least-once {e execution}. Past the capacity the least
          recently touched entry is evicted; a duplicate's arrival
          touches its entry. Retryable sheds ([Overloaded],
          [Txn_locked], [Quota_exceeded], [No_quorum]) are never
          recorded: their protocol retries the same id expecting
          re-evaluation. The entries sit in flat arrays in touch order
          under an open-addressing index, so keeping a call allocates
          nothing: only the reply it records outlives the call.
          Scope: there is one table for the whole runtime. It is
          consulted before the destination slot and its epoch are
          checked, and no crash, power failure or reactivation clears
          it, so a copy of a completed call is answered from the table
          even at a fresh placement. It keys on call ids, so it cannot
          recognise a re-execution carrying a {e fresh} id — a rebind
          after a delivery failure re-invokes under a new id, which is
          the documented at-least-once residue ([max_rebinds = 0]
          closes it for strictly-exactly-once workloads) — nor a copy
          whose entry was evicted past the capacity. *)
}

val default_config : config
(** 5 s timeout, 3 rebinds, no expiry, {!Retry.default} retransmission,
    no admission budgets, no breakers, a 4096-entry dedup table. *)

(** {1 Messages} *)

type call = { meth : string; args : Value.t list; env : Env.t }
type reply = (Value.t, Err.t) result

(** What reaches a host. Calls and replies cross the network as they
    are, sharing the caller's LOIDs, environment and arguments; only
    these two are ever sent. *)
type incoming =
  | In_call of {
      id : int;
      src_loid : Loid.t;
      src_host : int;
      dst_loid : Loid.t;
      dst_slot : int;
      call : call;
    }
  | In_reply of { id : int; reply : reply }
  | In_bounce of { id : int; src_host : int; err : Err.t }
      (** A damaged call whose id and caller still parse: answered
          [Err.Corrupt]. *)
  | In_garbage of string  (** A damaged frame with nothing to salvage. *)

val codec : incoming Legion_net.Network.codec
(** The record form of a call or reply (PROTOCOL §3): what the
    corruption fault seals and the tap sees. Its LOIDs, and any
    binding, LOID or address among the arguments or the result, stay
    [Value.Native]s inside it, whose own records are built only when
    the frame is encoded or read as fields. [codec.size] is its
    [Value.size_bytes], by formula. [codec.of_value] parses a record
    back, salvaging a damaged one into [In_reply] with [Err.Corrupt],
    [In_bounce] or [In_garbage]. [codec.to_value] and [codec.size]
    raise [Invalid_argument] on the last two. *)

val create :
  sim:Legion_sim.Engine.t ->
  net:incoming Legion_net.Network.t ->
  registry:Legion_util.Counter.Registry.r ->
  prng:Legion_util.Prng.t ->
  ?config:config ->
  ?obs:Legion_obs.Recorder.t ->
  unit ->
  t
(** [obs] is the structured-event recorder the runtime emits protocol
    events to; share one recorder with the network to get a single
    virtual-time-ordered stream. Defaults to a fresh private recorder,
    so emission is always unconditional. *)

val sim : t -> Legion_sim.Engine.t
val net : t -> incoming Legion_net.Network.t
val registry : t -> Legion_util.Counter.Registry.r
val prng : t -> Legion_util.Prng.t
val config : t -> config
val now : t -> float

val obs : t -> Legion_obs.Recorder.t

val emit : t -> host:Legion_net.Network.host_id -> Legion_obs.Event.kind -> unit
(** Emit an event at [host], stamping its site — for object
    implementations (Binding Agents, Magistrates) that surface their own
    protocol steps into the shared trace. *)

(** {1 Calls and handlers} *)

type ctx = { rt : t; self : proc }
(** What a handler sees: the runtime and its own process. *)

type handler = ctx -> call -> (reply -> unit) -> unit
(** Handlers must eventually invoke the reply continuation exactly once
    per call. *)

(** {1 Process lifecycle} *)

val spawn :
  t ->
  host:Legion_net.Network.host_id ->
  loid:Loid.t ->
  kind:string ->
  ?epoch:int ->
  ?cache_capacity:int ->
  ?binding_agent:Address.t ->
  ?admission:admission option ->
  handler:handler ->
  unit ->
  proc
(** Start an active object instance on [host]. [kind] groups the
    object's request counter (e.g. ["class"], ["binding_agent"],
    ["app"]). [epoch] stamps the placement's incarnation; it defaults
    to the LOID's {!current_epoch}, so a spawn following a
    {!bump_epoch} automatically belongs to the new incarnation while
    replica deployments of one incarnation share a number.
    [cache_capacity] bounds the comm-layer binding cache (default
    unbounded), which is built when the object first calls out or
    {!cache_of} reads it. [binding_agent] is the Object Address of the
    object's Binding Agent, "part of its persistent state" (§3.6).
    [admission] overrides the config-wide default budget for this
    object — [~admission:None] explicitly exempts it; omitting the
    argument inherits [config.admission]. The request counter's name,
    ["<loid>@<host>.<slot>"], is formatted when first read.
    @raise Invalid_argument on a negative [cache_capacity]. *)

val kill : t -> proc -> unit
(** Remove the instance; subsequent messages to its address are answered
    [No_such_object]. Killing twice is a no-op. *)

val kill_loid : t -> Loid.t -> unit
(** Kill every placement of the LOID. *)

val procs_on_host : t -> Legion_net.Network.host_id -> proc list
(** Live processes on a host. *)

val crash_host : t -> Legion_net.Network.host_id -> unit
(** Fault injection: mark the network host down and kill every process
    on it — unsaved state is lost, exactly as a real host crash. Calls
    already in flight {e to} the dead host are failed promptly with
    [Unreachable] (their pending entries reaped, a [Cancel] event
    emitted) rather than left to burn their full timeout budget. The
    host can later be brought back up with
    {!Legion_net.Network.set_host_up}; objects return via their
    Magistrates' last saved Object Persistent Representations. *)

val power_fail : t -> Legion_net.Network.host_id -> unit
(** Fault injection: mark the host down and fail in-flight calls to it,
    but — unlike {!crash_host} — leave its process table intact, as a
    power failure would. While down, its placements receive nothing;
    when the host comes back up ({!Legion_net.Network.set_host_up}),
    any placement superseded in the meantime (its epoch trails the
    LOID's {!current_epoch}) is reaped with a [Fence] event instead of
    being resurrected as a zombie. *)

(** {1 Epochs and recovery} *)

val current_epoch : t -> Loid.t -> int
(** The LOID's current incarnation number ([0] until first bumped). *)

val bump_epoch : t -> Loid.t -> int
(** Open a new incarnation and return its number. Magistrates call this
    on every reactivation; live placements of older incarnations are
    thereafter refused delivery with [Stale_epoch] (and reaped when
    their host reboots). *)

val proc_epoch : proc -> int
(** The incarnation this placement was spawned into. *)

val refresh_epoch : t -> proc -> unit
(** Re-stamp a live placement into its LOID's {e current} incarnation.
    The replica-set repair protocol calls this on the surviving
    replicas after {!bump_epoch}: the bump fences the dead replica's
    stale placements and addresses, while the survivors — legitimately
    part of the repaired set — are carried across into the new
    incarnation instead of being fenced alongside. *)

val host_changes : t -> Legion_net.Network.host_id -> int
(** How many times a change that could alter the host's resident sweep
    has happened there: a {!kill} of a placement on the host, a
    {!bump_epoch} of a LOID with a live placement there, a
    {!refresh_epoch} of a placement there, or a {!spawn} there below the
    LOID's {!current_epoch}. The Host Object re-runs its zombie sweep
    only when this count has moved since its last sweep. *)

val mark_dead : t -> Loid.t -> unit
(** Start the MTTR clock for a LOID (idempotent until recovery): the
    failure detector calls this at [ConfirmDead]; the first call
    subsequently delivered to the object stops the clock and records
    the elapsed virtual time in the ["rt.mttr"] histogram. *)

val is_live : proc -> bool

val last_delivery : proc -> float
(** Virtual time a call last reached this instance (spawn time if
    never). Feeds idle-deactivation sweeps. *)

val proc_loid : proc -> Loid.t
val proc_host : proc -> Legion_net.Network.host_id
val proc_kind : proc -> string
val placements : t -> Loid.t -> proc list
(** Active placements, newest first; [[]] when inert/unknown. *)

val find_proc : t -> Loid.t -> proc option
(** An arbitrary active placement. *)

val set_handler : proc -> handler -> unit
(** Swap the handler (used during two-phase bootstrap). *)

val set_binding_agent : proc -> Address.t option -> unit
val binding_agent : proc -> Address.t option

(** {1 Admission control and load shedding}

    A budgeted object ([admission] set at spawn or via
    {!set_admission}) executes at most [max_inflight] calls at once;
    arrivals beyond that park in a wait lane of at most [max_queue],
    and anything further is {e shed}: answered immediately with
    [Err.Overloaded] (a [Shed] event) instead of being allowed to rot
    until timeout. Admitted calls emit [Admit]. With no tenant registry
    armed every caller shares one anonymous lane, whose calls dispatch
    in arrival order as inflight slots free up. The caller's comm layer
    treats [Overloaded] as retryable backpressure (see {!invoke}). *)

val set_admission : proc -> admission option -> unit
val admission_of : proc -> admission option

val inflight : proc -> int
(** Calls currently executing (handler started, reply pending). *)

val queued_calls : proc -> int
(** Calls parked in the admission lanes. *)

val load_factor : proc -> float
(** [(inflight + queued) / (max_inflight + max_queue)] — [0.] when
    unbudgeted or idle, approaching [1.] as the next arrival would be
    shed. Parts use it to degrade by policy {e before} the hard limit:
    {!Legion_core.Class_part} sheds creates past [0.5] while lookups
    ride to the end. *)

val shed_reply : t -> proc -> meth:string -> Err.t
(** Shed by policy from inside a handler: emits the [Shed] event,
    counts it, and returns the [Err.Overloaded] (with the same
    queue-scaled [retry_after] hint the admission layer uses) for the
    handler to reply with. *)

(** {1 Tenancy}

    Arming a {!Tenant.t} registry ({!set_tenants}) switches every
    budgeted process from the anonymous lane to {e per-tenant} wait
    lanes scheduled by deficit round robin: a call's tenant is derived from
    its environment's Responsible Agent ([Env.responsible], §2.4), its
    token-bucket and inflight budgets are charged at admission (a failed
    charge is shed with the retryable [Err.Quota_exceeded], attributed
    to the tenant in the [Shed] event), and freed inflight slots are
    granted weight-proportionally across backlogged lanes, each bounded
    by [max_queue] — so a flooding tenant exhausts only its own lane and
    budget while everyone else's queue depth and dispatch share are
    preserved. The anonymous lane is the same mechanism with one
    weight-1 lane: deficit round robin over a single lane serves it in
    arrival order, and a full anonymous lane sheds [Err.Overloaded]
    with an untagged [Shed] event. *)

val set_tenants : t -> Tenant.t option -> unit
val tenants : t -> Tenant.t option

val charge_quota : t -> proc -> meth:string -> env:Env.t -> (unit, Err.t) result
(** Charge one call against the caller's tenant rate budget from inside
    a handler — for parts gating expensive methods (a class charging
    [Create]) with the same bucket, shed accounting, and
    [Err.Quota_exceeded] shape as the admission layer. [Ok ()] when no
    registry is armed or the tenant is unbudgeted. *)

val note_deny : t -> proc -> meth:string -> env:Env.t -> string
(** Record a policy rejection without choosing the error shape: counts
    it against the caller's tenant, emits the tenant-tagged [Deny]
    event, and returns the judged tenant's name — for parts that keep a
    legacy error type (the Magistrate's [Refused]) on their own policy
    path. *)

val deny_reply : t -> proc -> meth:string -> env:Env.t -> reason:string -> Err.t
(** A binding-path policy rejection: {!note_deny} plus the terminal
    [Err.Denied] for the handler to reply with. *)

(** {1 Addresses and bindings} *)

val element_of : proc -> Address.element
(** The [Sim] Object Address Element where this instance listens. *)

val address_of : proc -> Address.t
(** Singleton address of this instance. *)

val mint_binding : t -> epoch:int -> loid:Loid.t -> Address.t -> Binding.t
(** A binding of [loid] to the address at [epoch], expiring the
    configured [binding_ttl] from now (never when it is [None]). Every
    binding the system answers with is stamped here. *)

val binding_of : t -> proc -> Binding.t
(** [mint_binding] for this single instance at its epoch. *)

val seed_binding : proc -> Binding.t -> unit
(** Prime the instance's comm-layer cache (bootstrap, or explicit
    propagation "for performance purposes", §3.6 AddBinding). *)

val cache_of : proc -> Legion_naming.Cache.t
(** The comm-layer binding cache (exposed for tests and experiments). *)

(** {1 Invocation} *)

val invoke :
  ctx ->
  ?timeout:float ->
  ?max_rebinds:int ->
  dst:Loid.t ->
  meth:string ->
  args:Value.t list ->
  ?env:Env.t ->
  (reply -> unit) ->
  unit
(** Full communication layer: cache → Binding Agent → send; on delivery
    failure, invalidate, refresh via the Binding Agent ([GetBinding]
    with the stale binding), retry up to [max_rebinds]. [env] defaults
    to the caller's self-sovereign environment. [timeout] replaces the
    configured deadline {e and} disables the retransmission policy —
    the call becomes a single attempt under a caller-managed budget.
    Probes that feed a decision inside a larger call chain must use a
    short one or they exhaust the upstream caller's budget; methods
    that defer their reply (barrier [Arrive]) must use a long one so
    the single transmission is never repeated. [max_rebinds] similarly
    overrides the rebind budget — failure-detector-style scans over
    possibly-dead components set both low.

    Backpressure: an [Overloaded] reply — and a [Txn_locked] prepare
    rejection, which sheds the same way — is retried under the same call
    id after backing off at least the destination's [retry_after] hint
    ({!Retry.backoff_window}), as long as attempt budget and deadline
    remain — explicit-[?timeout] (single-attempt) calls surface it
    immediately. When breakers are configured, sends consult the
    destination's circuit first and may fail fast (or wait out the
    cooldown, budget permitting) without touching the network. *)

val invoke_address :
  ctx ->
  ?timeout:float ->
  address:Address.t ->
  dst:Loid.t ->
  meth:string ->
  args:Value.t list ->
  env:Env.t ->
  (reply -> unit) ->
  unit
(** Send directly to a known Object Address, honouring its semantic:
    [All]/[First_k]/[K_random] race the targets and take the first real
    reply; [Any_random] picks one; [Ordered_failover] (and [Custom])
    walk the element list, failing over on delivery failures only. *)

val invoke_binding :
  ctx ->
  ?timeout:float ->
  binding:Binding.t ->
  meth:string ->
  args:Value.t list ->
  env:Env.t ->
  (reply -> unit) ->
  unit
(** [invoke_address] on the binding's address and LOID. *)

(** {1 Accounting} *)

val total_calls_delivered : t -> int
val total_sheds : t -> int
(** Calls rejected with [Overloaded] — by admission queues and by
    parts shedding through {!shed_reply}. *)

val dedup_hits : t -> int
(** Duplicate call deliveries absorbed or replayed by the exactly-once
    cache ([0] when [dedup_capacity] is [None]). *)

val requests_of : proc -> int
(** Method calls delivered to this instance. *)

val caller_sites : proc -> (Legion_net.Network.site_id * int) list
(** Cumulative calls delivered to this instance, grouped by the
    caller's site. This is the locality signal behind §3.8's
    "schedulers may migrate objects toward their callers": a rebalancer
    diffs successive snapshots to find where an object's demand
    actually comes from. Unordered; sites it never heard from are
    absent. *)

val breaker_phase : t -> Legion_net.Network.host_id -> string option
(** The circuit phase toward a destination host (["closed"], ["open"],
    ["half-open"]); [None] when breakers are disabled. *)
