(** The chaos explorer: run seeded fault schedules against a composed
    workload and audit global invariants (E22).

    Every run boots a fresh two-site Legion, populates it with three
    concurrent workloads — non-idempotent {e ledger} objects (each
    [Apply] records its op id, so a double-applied effect is visible as
    a multiplicity), an E20-style transaction mix (2PC + saga over
    participant pairs), and an E17-style fenced quorum group — then
    executes the {!Schedule} round by round, heals everything, drains,
    and audits:

    - no double-applied effect: every op id appears at most once in
      every ledger (callers never rebind, so the network's at-least-once
      retransmission plus injected duplicates are the only duplicate
      sources — exactly what the runtime's dedup cache must absorb);
    - transactional atomicity: no staged residue, no mixed
      commit/compensate marks, no acknowledged commit later
      compensated (the E20 gates);
    - no orphaned prepare locks ([TxnHeld] empty everywhere) and no
      in-doubt transactions ([TxnStats]);
    - no split-brain drift: after the post-heal [Reconcile], every
      fenced group member holds the same value;
    - epoch monotonicity: no tracked object's binding epoch ever
      decreases;
    - post-heal liveness: every object answers a final probe.

    Violations are collected as strings (never raised) so the
    {!shrink}er can minimize a failing schedule by re-running it.

    {!run} is the E22 gate the bench, the [legion-sim chaos] subcommand
    and the regression tests share. *)

(** {1 One schedule} *)

type outcome = {
  violations : string list;  (** Empty iff every invariant held. *)
  ledger_acked : int;  (** Ledger ops acknowledged to the client. *)
  ledger_recorded : int;  (** Distinct op ids found in the ledgers. *)
  double_applies : int;  (** Op ids recorded more than once. *)
  dedup_hits : int;  (** Runtime dedup-cache absorptions. *)
  txns_acked : int;
  txns_committed : int;
  txns_compensated : int;
  group_acked : int;  (** Fenced group writes acknowledged. *)
  duplicated : int;  (** Network-injected duplicate copies. *)
  reordered : int;
  corrupted : int;
  dropped : int;
  drops_corrupt : int;  (** Fail-closed integrity drops. *)
  crashes : int;  (** Crash + power-fail actions applied. *)
}

val run_schedule : ?dedup:bool -> Schedule.t -> outcome
(** Execute one schedule. [dedup] (default [true]) controls the
    runtime's exactly-once cache; with it off, a duplication-heavy
    schedule is expected to produce [double_applies > 0] — the
    detection half of the E22 gate. Deterministic per schedule. *)

val failed : outcome -> bool
(** [violations <> []]. *)

val shrink : ?dedup:bool -> Schedule.t -> outcome -> Schedule.t * outcome
(** Greedy delta-debugging: repeatedly drop single steps from a failing
    schedule while {!run_schedule} keeps failing, returning a locally
    minimal schedule and its outcome. A schedule whose outcome passes is
    returned unchanged. *)

val outcome_json : Schedule.t -> outcome -> string
(** One deterministic JSON row (schedule seed, workload, fault counts,
    audit counters, violations) — the byte-determinism unit for E22. *)

(** {1 The E22 gate} *)

type config = {
  seed : int64;  (** Fleet schedule [i] is generated from [seed + i]. *)
  schedules : int;
  rounds : int;  (** Rounds per fleet schedule. *)
}

val default : config
(** The E22 gate: seed 61, 200 schedules of 16 rounds. *)

val dup_heavy : seed:int64 -> Schedule.t
(** The duplication-heavy schedule: 40% duplication and 8% loss from
    round 1, reordering from round 6, no crashes or partitions, 12
    rounds — so a double apply can only come from duplicate
    execution. The gate runs it with seed [cfg.seed + 9000]. *)

type report = {
  cfg : config;
  failures : (int * Schedule.t * outcome) list;
      (** Fleet schedules that violated an invariant, by index. *)
  nondeterministic : (int * string * string) list;
      (** Fleet schedules whose re-run differed: index and both rows. *)
  samples : string list;  (** Rows of schedules 1–10 and every 25th. *)
  dup_on : outcome;  (** {!dup_heavy} with the dedup cache on ... *)
  dup_off : outcome;  (** ... and off. *)
  dup_deterministic : bool;  (** A second dedup-on run matched the first. *)
  shrunk : (Schedule.t * outcome) option;
      (** The first failure (fleet, else dedup-on), minimized. *)
  wall_s : float;  (** Wall-clock seconds of the fleet; never in the JSON. *)
}

val run : config -> report
(** Run the fleet (every schedule twice), then the dup-heavy schedule
    with dedup on, off, and on again. A failure is shrunk once, at the
    end. *)

val violations : report -> string list
(** The E22 gates, one line per breach: each failing or
    nondeterministic fleet schedule; the dup-heavy schedule failing
    with dedup on, recording no dedup hits, injecting no duplicates, or
    running nondeterministically; and dedup off showing no double
    applies (a blind detector). Empty iff every gate holds. *)

val to_json : report -> string
(** The BENCH_E22.json document (no trailing newline). *)

val print : report -> unit
(** The E22 table: fleet size and violations, and the dup-heavy pair
    side by side. *)

val write_artifact : report -> unit
(** Write the [shrunk] schedule, if any, to [E22_FAILING_SCHEDULE.txt]
    in the replay format ([legion-sim chaos --replay]), and say so on
    stderr. *)
