(** Magistrates (paper §2.2, §3.8): the "legion.magistrate" unit.

    "A Magistrate is in charge of a Jurisdiction … a set of hosts and
    some aggregate persistent storage. The purpose of a Magistrate is to
    perform the activation, deactivation, and migration of the Legion
    objects under its control." Magistrates are Legion's site-autonomy
    mechanism: an {e activation policy} lets a site refuse requests —
    "member function calls on Magistrates should be thought of as
    requests rather than commands".

    Methods (§3.8): [Activate(obj: loid, hints: record): binding] —
    hints may carry [host: opt<loid>] (the paper's two-LOID overload),
    [stale: opt<address>] (a believed-dead address to supersede) and
    [sched: opt<loid>] (a Scheduling Agent to consult);
    [Deactivate(obj: loid): unit]; [Delete(obj: loid): unit];
    [Copy(obj: loid, to: loid): unit]; [Move(obj: loid, to: loid): unit];
    [SweepIdle(threshold: float): int] — deactivate managed objects that
    received no call for [threshold] virtual seconds ("moving objects
    between Active and Inert states", §3.1);
    [TransferObjects(to: loid, max: int): int] and
    [AdoptObject(obj: loid, opa: any): unit] — the §2.2 splitting
    protocol: hand managed objects to another Magistrate whose
    Jurisdiction shares the storage (the OPR is not copied, only
    responsibility moves, and the class is notified per object);
    plus [StoreObject(obj: loid, opr: blob): unit] (how objects enter a
    Jurisdiction: Create and incoming migrations), jurisdiction
    administration ([AddHost]/[RemoveHost]/[SetActivationPolicy]) and
    introspection ([ListObjects]/[GetJurisdictionInfo]).

    Each record has at most one operation in flight: an activation, or
    a transfer ([Move], [TransferObjects]) to another Magistrate. A
    repeat of it (a second [Activate], a [Move] to the same
    destination) joins it and shares its reply. An [Activate] during a
    transfer is held, then forwarded to the new home once the transfer
    commits or served here if it aborts. Any other request on the
    record ([Move] elsewhere, [Copy], [Deactivate], [Delete]) waits
    until the operation settles and is then replayed whole, so none of
    them can strand the placement an activation creates. The sweeps
    ([SweepIdle], the checkpoint sweep, [TransferObjects]) skip a busy
    record (PROTOCOL §5.4).

    Storage is site infrastructure: a Jurisdiction's disks are
    registered under the jurisdiction's name with {!register_storage}
    and referenced by name from the Magistrate's persistent state —
    Object Persistent Addresses are "only meaningful within the
    Jurisdiction" (§3.1.1). *)

module Impl := Legion_core.Impl
module Value := Legion_wire.Value
module Loid := Legion_naming.Loid
module Policy := Legion_sec.Policy

val unit_name : string
(** ["legion.magistrate"]. *)

val register_storage : string -> Legion_store.Persistent.t -> unit
(** Bind a jurisdiction name to its storage. Idempotent (last wins). *)

val find_storage : string -> Legion_store.Persistent.t option

val state_value :
  ?hosts:Loid.t list ->
  ?activation_policy:Policy.t ->
  jurisdiction:string ->
  unit ->
  Value.t
(** Initial unit state: jurisdiction name (must be registered before
    the Magistrate activates), member Host Object LOIDs, and the
    activation policy (default [Allow_all]). *)

val factory : Impl.factory
val register : unit -> unit
