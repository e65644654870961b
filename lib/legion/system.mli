(** Booting and operating a Legion instance (paper §4.2.1).

    "The core objects, including the core Abstract classes
    (LegionObject, LegionClass, etc.), Host Objects, and Magistrates,
    are intended to be started from the command line or shell script in
    the host operating system." [boot] is that shell script: it builds
    the simulated internetwork, spawns the five core class objects with
    their well-known LOIDs, one Binding Agent and one Magistrate (with
    storage) per site, one Host Object per host, then lets the
    externally-started objects register with their classes — "when Host
    Objects come alive, they contact the existing class object named
    LegionHost".

    One Jurisdiction is created per site, named after it. Site 0's
    first host carries the core class objects. *)

module Loid := Legion_naming.Loid
module Address := Legion_naming.Address
module Runtime := Legion_rt.Runtime

type site = {
  site_id : Legion_net.Network.site_id;
  site_name : string;
  net_hosts : Legion_net.Network.host_id list;
  host_objects : Loid.t list;  (** One per net host, same order. *)
  magistrate : Loid.t;
  agent : Loid.t;  (** The site's Binding Agent. *)
  agent_address : Address.t;
  storage : Legion_store.Persistent.t;
}

type t

val boot :
  ?seed:int64 ->
  ?latency:Legion_net.Network.latency ->
  ?rt_config:Runtime.config ->
  ?agent_cache_capacity:int ->
  ?object_cache_capacity:int ->
  ?trace_capacity:int ->
  sites:(string * int) list ->
  unit ->
  t
(** [boot ~sites:[("uva", 4); ("doe", 8)] ()] brings up a two-site
    Legion with 4 and 8 hosts. [object_cache_capacity] bounds the
    comm-layer cache of every object created thereafter through the
    class machinery. [trace_capacity] bounds the structured-event ring
    buffer (see {!obs}). @raise Failure if any bootstrap registration
    fails. *)

val sim : t -> Legion_sim.Engine.t
val net : t -> Legion_rt.Runtime.incoming Legion_net.Network.t
val rt : t -> Runtime.t
val registry : t -> Legion_util.Counter.Registry.r
val prng : t -> Legion_util.Prng.t
val sites : t -> site list
val site : t -> int -> site

val obs : t -> Legion_obs.Recorder.t
(** The structured-event recorder shared by the network and the
    runtime: every [Send]/[Deliver]/[Drop], every comm-layer cache and
    rebind decision, and every activation appears here in virtual-time
    order. Query it with {!Legion_obs.Trace}, or count a kind with
    {!Legion_obs.Recorder.count}. Note that boot itself
    emits the bootstrap's events; {!Legion_obs.Recorder.clear} (or a
    {!Legion_obs.Recorder.total} mark) isolates a scenario. *)

val magistrates : t -> Loid.t list
val host_objects : t -> Loid.t list

val fresh_instance_loid : t -> of_class:Loid.t -> Loid.t
(** Allocate a LOID for an externally-started instance of a core class
    (how bootstrap names Host Objects, Magistrates and Binding Agents;
    also used by tests). Draws from a high range ([2^32 + n]) so it
    never collides with class-allocated sequence numbers. *)

val infra_hosts : t -> Legion_net.Network.host_id list
(** The first host of each site, in site order. It carries the site's
    Binding Agent and Magistrate (site 0's also the core classes), which
    are started from outside Legion and never reactivate elsewhere, so
    fault injection spares these hosts. *)

val client : t -> ?site:int -> unit -> Runtime.ctx
(** Spawn a client process (a minimal Legion object wired to the site's
    Binding Agent) and return its context for issuing invocations. *)

(** {1 Starting infrastructure from the shell}

    Every externally-started object — bootstrap's Binding Agents, Host
    Objects and Magistrates, and those the operator actions below add
    later — is one OPR of its unit plus LegionObject's, activated
    directly on a host. @raise Failure if the activation fails. *)

val start_agent :
  t -> ?parent:Address.t -> Legion_net.Network.host_id -> Runtime.proc
(** Start a Binding Agent (seeded with LegionClass's binding, forwarding
    to [parent] if given) on a host. It is not registered with its
    class. *)

val start_magistrate :
  t -> site:int -> name:string -> hosts:Loid.t list -> Runtime.proc
(** Start a Magistrate for a new Jurisdiction [name] over [hosts] on the
    site's last host. It shares the site's storage (§2.2 non-disjoint
    Jurisdictions), so a later [TransferObjects] moves responsibility
    without moving bytes. The caller registers it with LegionMagistrate. *)

val wire_agent_tree : t -> fanout:int -> (string list -> unit) -> unit
(** The non-blocking half of {!arrange_agent_tree}: start the root
    layer and send every site agent its SetParent, then return at once;
    the continuation receives the refused SetParents (empty on success)
    once all have replied. Callable from inside an engine callback.
    @raise Invalid_argument if [fanout <= 0]. *)

(** {1 Operator actions} *)

val grow_site :
  t -> site:int -> ?host_class:Loid.t -> n:int -> unit -> Loid.t list
(** Expand a Jurisdiction at run time: add [n] simulated hosts to the
    site, start a Host Object on each "from outside Legion" (§4.2.1),
    register it with [host_class] (default [LegionHost]; pass a class
    derived from it — Fig. 8's UnixHost/SPMDHost hierarchy — to model
    heterogeneous resources), and tell the site's Magistrate via
    [AddHost]. Returns the new Host Object LOIDs. "New Host Objects and
    Magistrates will be added as the Legion system expands to include
    new hosts and Jurisdictions." @raise Failure if a registration is
    refused. *)

val arrange_agent_tree : t -> fanout:int -> unit
(** Organize the per-site Binding Agents into a §5.2.2 combining tree:
    a fresh root layer of agents is spawned (one root per [fanout]
    sites, on the first host of each covered group) and every site
    agent's parent link is set to its root, so class lookups from any
    site funnel through the roots instead of all reaching LegionClass.
    Idempotent only in effect (calling twice builds a second root
    layer). @raise Invalid_argument if [fanout <= 0]; @raise Failure if
    a root cannot be spawned or a SetParent is refused. *)

val split_jurisdiction : t -> site:int -> Loid.t
(** §2.2: "if a Jurisdiction's resources impose a substantial load on
    its Magistrate, the Jurisdiction can be split, and a new Magistrate
    can be created to take over responsibility for some of the
    resources and objects." Start a fresh Magistrate on the site (from
    outside Legion, like all Magistrates), give it the second half of
    the site's Host Objects (the originals keep serving both — §2.2
    allows non-disjoint Jurisdictions, and the two share the site's
    storage), move half of the managed objects to it via
    [TransferObjects], and return its LOID. @raise Failure when the
    transfer fails. *)

val checkpoint_all : t -> int
(** Operator shutdown/backup: ask every Magistrate to [SweepIdle 0.0],
    deactivating every idle object it manages — class objects included —
    into a fresh Object Persistent Representation on its Jurisdiction's
    disks. Returns how many objects were deactivated. Externally-started
    infrastructure (Magistrates, Host Objects, Binding Agents) keeps
    running; everything deactivated returns on its next reference. *)

val enable_recovery :
  t ->
  ?checkpoint_period:float ->
  ?heartbeat_period:float ->
  ?threshold:int ->
  until:float ->
  unit ->
  unit
(** Arm the crash-recovery machinery on every Magistrate: a periodic
    [SweepCheckpoint] loop (default period 1.0) that snapshots active
    objects' [SaveState] into fresh OPRs without deactivating them, and
    a heartbeat loop (default period 0.25, threshold 3) that probes the
    Jurisdiction's Host Objects and, once a host misses [threshold]
    consecutive beats, confirms it dead and notifies each stranded
    object's responsible class ([NotifyDead]) so it reactivates the
    object from its last checkpoint on a surviving host. Both loops
    stop at absolute simulation time [until] so [run] still terminates.
    Only the arming handshake is simulated here; the loops themselves
    fire during subsequent [run]/[run_for] calls.
    @raise Failure when a Magistrate rejects the arming call. *)

val run : t -> unit
(** Run the simulation until quiescence. *)

val run_for : t -> float -> unit
(** Run at most the given amount of virtual time. *)

val now : t -> float
