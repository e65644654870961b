(** Autonomic elasticity (E19).

    The paper's load-management mechanisms — class cloning (§5.2.2),
    Scheduling Agents (§3.7–3.8), Jurisdiction splitting (§2.2) and
    Binding Agent combining trees (§5.2.2) — are all {e mechanisms};
    the policy deciding when to use them is left open. {!enable} is
    that policy: it arms self-managing loops that watch demand and
    invoke each mechanism when its signal trips, with no operator in
    the loop.

    {!run} is the E19 gate the bench, the [legion-sim elastic]
    subcommand and the regression tests share: a two-site Legion whose
    entire object population starts in one Jurisdiction, hit by a
    Zipf-skewed diurnal workload and a flash crowd arriving from the
    other site, once static and once with the machinery armed. *)

module Loid := Legion_naming.Loid
module Runtime := Legion_rt.Runtime

type enabled = {
  rebalancer : Loid.t;  (** The rebalancing Scheduling Agent. *)
  retier_fired : unit -> bool;
      (** Whether the agent tree has been re-tiered yet. *)
}

val enable :
  System.t ->
  Runtime.ctx ->
  classes:Loid.t list ->
  until:float ->
  enabled
(** Arm the elastic machinery until absolute virtual time [until]:
    budget each class in [classes] and start its §5.2.2 cloning loop;
    provision a spare Magistrate per site; derive and
    start a ["legion.sched.rebalance"] Scheduling Agent supervising
    every Jurisdiction; and watch Binding Agent demand for re-tiering.
    Only the arming handshakes are simulated here — the loops fire
    during subsequent runs. @raise Api.Call_failed / Failure when an
    arming step is refused. *)

(** {1 The E19 gate} *)

type arm = {
  arrivals : int;  (** Open-loop arrivals generated. *)
  works : int;  (** Work calls issued (arrivals minus churn creates). *)
  oks : int;
  sheds : int;  (** Replies lost to admission shedding. *)
  errors : int;
  created : int;  (** Churn instantiations acknowledged. *)
  p50_ms : float;  (** Whole-run Work latency percentiles. *)
  p99_ms : float;
  flash_p50_ms : float;
      (** Latency over the {e settled} half of the flash window,
          flash-site callers only — the E19 gate metric. *)
  flash_p99_ms : float;
  max_host_share : float;
      (** Largest per-host share of served Work calls — flat means the
          load spread; near 1 means one host carried the crowd. *)
  clones : int;  (** Clone / Merge / Migrate / Split events observed. *)
  merges : int;
  moves : int;
  splits : int;
  retier : bool;  (** Whether the agent tree re-tiered. *)
}
(** One run of the flash-crowd scenario: two sites of three hosts, 16
    objects all placed in the east Jurisdiction, a Zipf(1.2) diurnal
    workload at 40 arrivals/s with a 6x flash crowd from the west
    between t+20 and t+40, every eighth arrival an instantiation
    request. *)

type config = { seed : int64 }

val default : config
(** The E19 gate: seed 42. *)

type report = {
  cfg : config;
  baseline : arm;  (** Nothing adapts. *)
  elastic : arm;  (** {!enable} armed first. *)
  deterministic : bool;
      (** A second elastic run reproduced the first byte for byte. *)
}

val run : config -> report
(** Run the baseline arm, the elastic arm and the elastic arm again.
    Deterministic: the same config yields a byte-identical {!to_json}. *)

val violations : report -> string list
(** The E19 gates, one line per breach: determinism; the elastic
    settled-flash p50 at most 0.5x the baseline's and its max host share
    at most 0.85x; no errors in either arm; every adaptation (clone,
    merge, migration, split, re-tier) fired in the elastic arm, and none
    in the baseline. Empty iff every gate holds. *)

val to_json : report -> string
(** The BENCH_E19.json document (no trailing newline). *)

val print : report -> unit
(** The E19 table (both arms) and the ratio line. *)
