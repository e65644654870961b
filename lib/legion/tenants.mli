(** Multi-tenant hardening (E21, the noisy-neighbor gate).

    The runtime's tenancy layer keys every budget off the §2.4
    {e Responsible Agent}: a {!Legion_rt.Tenant} registry holds each
    principal's weight, inflight cap and token-bucket rate, budgeted
    objects queue per tenant under deficit round robin, and the class
    machinery judges its binding policy before handing out bindings.

    {!run} is the E21 gate the bench, the [legion-sim tenants]
    subcommand and the regression tests share:
    four registered tenants drive a pool of budgeted workers; in the
    {e noisy} arm one of them ([mallory]) is driven at 10x its token
    budget, and in both arms an unauthorized principal ([eve]) probes
    from the other site. The gates: the offender must not move the
    well-behaved tenants' p99 (vs the quiet arm, same seed) by more
    than the documented bound, every [Shed] must be attributed to the
    offender, and eve must be answered [Err.Denied] at [GetBinding] —
    she never receives a binding. *)

type lane = {
  tenant : string;
  sent : int;  (** Open-loop arrivals issued by this tenant. *)
  oks : int;
  quota_shed : int;
      (** Caller-visible [Quota_exceeded] / [Overloaded] replies (after
          the comm layer's budget-aware retries gave up). *)
  errors : int;  (** Any other failed reply. *)
  p50_ms : float;  (** End-to-end Work latency percentiles. *)
  p99_ms : float;
}

type arm = {
  lanes : lane list;  (** alpha, beta, gamma, mallory — fixed order. *)
  shed_events : int;  (** [Shed] events in the scenario window. *)
  shed_by_offender : int;  (** ... attributed to mallory. *)
  shed_unattributed : int;  (** ... carrying no tenant tag (gate: 0). *)
  deny_events : int;  (** [Deny] events in the window. *)
  deny_by_eve : int;  (** ... attributed to eve. *)
  eve_probes : int;
  eve_denied : int;  (** Probes answered [Err.Denied] (gate: all). *)
  eve_bindings : int;  (** Probes that got through (gate: 0). *)
}
(** One run of the scenario: two sites of three hosts, two budgeted
    workers (one inflight slot, 8 ms service) in the east Jurisdiction;
    alpha, beta and gamma each drive 20 Poisson arrivals/s for 30
    virtual seconds under ample budgets; mallory holds a 25 calls/s
    token budget and drives 20/s in the quiet arm, 250/s in the noisy
    one; eve, on the west site, probes every 500 ms against a class
    whose binding policy ([Allow_responsible]) excludes her. *)

type config = { seed : int64 }

val default : config
(** The E21 gate: seed 42. *)

type report = {
  cfg : config;
  quiet : arm;
  noisy : arm;
  deterministic : bool;
      (** A second noisy run reproduced the first byte for byte. *)
}

val run : config -> report
(** Run the quiet arm, the noisy arm and the noisy arm again.
    Deterministic: the same config yields a byte-identical {!to_json}. *)

val violations : report -> string list
(** The E21 gates, one line per breach: determinism; each well-behaved
    tenant's p99 moved at most 25 ms; the noisy arm shed, every shed
    attributed to mallory and none untagged; and in both arms eve
    probed, was denied on every probe with a [Deny] event each and
    never got a binding, and the well-behaved lanes saw no quota sheds
    and no errors. Empty iff every gate holds. *)

val to_json : report -> string
(** The BENCH_E21.json document (no trailing newline). *)

val print : report -> unit
(** The E21 table (both arms, one row per lane) and the summary line. *)
