(** E20 — atomic multi-object invocations under fault schedules.

    {!run} is the scenario the E20 bench, the [legion-sim txn]
    subcommand and the regression tests share: a fixed mix of 2PC and
    saga transactions over six counter participants runs under one
    fault {!schedule}; after it heals and the system quiesces,
    atomicity is proved from the store histories alone ({!audit}) and
    the live participants and coordinator are probed for orphaned
    prepare locks and in-doubt transactions.

    The fixture ({!step}, {!create_coordinator}) and the audit are
    shared with the soak tests and the E22 chaos explorer. *)

module Loid := Legion_naming.Loid
module Runtime := Legion_rt.Runtime

(** {1 The transaction fixture} *)

val step : Loid.t -> int -> Legion_wire.Value.t
(** [step dst d]: one transaction step that increments [dst] by [d] and
    compensates with [-d]. *)

val create_coordinator :
  System.t -> Runtime.ctx -> cls:Loid.t -> Loid.t * Legion_net.Network.host_id option
(** Instantiate [cls] (a class carrying the coordinator unit) until an
    instance lands off the infrastructure hosts, so a crash schedule can
    kill it without beheading a Jurisdiction (magistrates are externally
    started, §4.2.1). Gives up after 17 instances. Returns the last
    instance and its host, if found. *)

(** {1 The atomicity audit} *)

type audit = {
  committed : int;  (** Transactions with Committed marks. *)
  compensated : int;  (** Transactions with Compensated marks. *)
  violations : string list;
      (** One line per transaction with Staged residue, per transaction
          marked both Committed and Compensated, and per acknowledged
          commit recorded as compensated. *)
}

val audit :
  Legion_store.Persistent.t -> submitted:string list -> acked:string list -> audit
(** A pure walk over the store's version histories. [submitted] lists
    the transaction ids the client learned of (committed or aborted);
    [acked] the commits acknowledged to it. *)

val held_locks : System.t -> Runtime.ctx -> Loid.t array -> string list
(** Probe each participant's [TxnHeld]: one line per participant still
    holding a prepare lock or failing to answer. *)

val in_doubt : System.t -> Runtime.ctx -> Loid.t -> string list
(** Probe the coordinator's [TxnStats]: one line if any transaction is
    still in doubt or the probe fails. *)

(** {1 The E20 scenario} *)

type schedule = Clean | Crash_participant | Crash_coordinator | Partition | Shed

val schedules : schedule list
(** The five gated schedules, in report order. *)

type mode =
  | Mix  (** A seeded coin flip per transaction. *)
  | Two_phase
  | Saga

type config = {
  seed : int64;
  rounds : int;  (** One transaction (three under [Shed]) per round. *)
  schedule : schedule;
  mode : mode;
      (** The coordinator-crash round is always 2PC, whatever the mode. *)
}

val default : config
(** The E20 gate: seed 53, 30 rounds, [Clean], [Mix]. *)

type report

val run : config -> report
(** Two sites of three hosts with the recovery machinery armed. The
    scenario runs twice: the same config must yield a byte-identical
    {!to_json}. *)

val violations : report -> string list
(** The E20 gates: no partial commits, no orphaned locks, nothing in
    doubt, under [Crash_coordinator] at least one [Resume], and a
    byte-identical re-run. Empty iff every gate holds. *)

val to_json : report -> string
(** One BENCH_E20.json row; [in_doubt], [partial_commits] and
    [orphaned_locks] count the violations of each gate. *)

val print_table : report list -> unit
(** The E20 table, one row per report, titled from the first. *)
