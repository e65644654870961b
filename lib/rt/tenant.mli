(** The tenant registry: per-principal budgets for multi-tenant serving.

    The paper's §2.4 environment triple names the {e Responsible Agent} —
    the principal a whole call chain runs on behalf of. This registry
    keys budgets off exactly that field: a {e tenant} is a named
    principal (its Responsible-Agent LOID) with a weight for fair
    queuing, an optional registry-wide inflight cap, and an optional
    token-bucket rate budget, all in deterministic virtual time.

    The registry only budgets principals that are registered.
    Everything else — infrastructure objects calling each other, tests,
    anonymous clients — maps to a shared fallback tenant with no limits,
    so arming tenancy never inverts RPC dependency order the way a
    blanket budget would. Attribution still works for the fallback lane:
    its sheds and denials are tagged [~unregistered]. *)

type budget = {
  weight : int;  (** Deficit-round-robin quantum (calls per turn), >= 1. *)
  max_inflight : int;
      (** Registry-wide concurrent admitted calls; [0] = unlimited. *)
  rate : float;  (** Token refill rate, calls per virtual second; [0.] = unlimited. *)
  burst : float;  (** Bucket capacity, >= 1 whenever [rate > 0]. *)
}

type tenant
(** A registered principal with live bucket/inflight/attribution state. *)

type t
(** The registry: one per runtime. *)

val create : unit -> t

val register :
  t ->
  name:string ->
  responsible:Legion_naming.Loid.t ->
  ?weight:int ->
  ?max_inflight:int ->
  ?rate:float ->
  ?burst:float ->
  unit ->
  tenant
(** Register (or re-key) a tenant. Defaults: weight 1, no inflight cap,
    no rate limit; [burst] defaults to a quarter-second of [rate] (and
    is clamped to >= 1). Registering an existing [name] under a new
    [responsible] LOID keeps the tenant's counters — one principal may
    present several Responsible Agents.
    @raise Invalid_argument if [name] is empty. *)

val of_env : t -> Legion_sec.Env.t -> tenant
(** The tenant whose Responsible Agent is [env.responsible]; the shared
    fallback tenant when unregistered. *)

val fallback_name : string
(** The fallback lane's name, [~unregistered]. *)

val tenants : t -> string list
(** Registered names, registration order (fallback excluded). *)

val name : tenant -> string
val weight : tenant -> int
val budget : tenant -> budget
val inflight : tenant -> int
val admitted : tenant -> int
val shed_count : tenant -> int

(** {1 Budget mechanics} — called by the runtime's admission path and by
    parts that shed by policy (a class charging [Create]). *)

val try_take : tenant -> now:float -> bool
(** Charge one call against the token bucket. Always true when the
    tenant has no rate budget. *)

val retry_hint : tenant -> now:float -> float
(** Virtual seconds until the bucket next holds a whole token — the
    [retry_after] a quota shed carries. [0.] when unbudgeted. *)

val inflight_ok : tenant -> bool
(** True when the tenant may start another call. *)

val begin_call : tenant -> unit
(** Count an admitted call: bumps inflight and the admitted tally. *)

val end_call : tenant -> unit
val note_shed : tenant -> unit
