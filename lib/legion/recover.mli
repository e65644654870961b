(** E15 — crash recovery: checkpoints, failure detection, fencing.

    The scenario the E15 bench (which sweeps the checkpoint period) and
    [legion-sim recover] share. Eight eager counters on two sites of
    three hosts take an open-loop workload with the recovery machinery
    armed: periodic Magistrate checkpoints, heartbeat failure detection
    (Suspect -> ConfirmDead), class-driven reactivation on a surviving
    host, and epoch fencing of the zombie placements the power failure
    leaves behind. The first non-infrastructure host power-fails
    mid-workload and reboots later; its superseded placements are
    reaped. *)

type config = {
  seed : int64;  (** Boot seed; the workload draws from [seed + 6]. *)
  checkpoint_period : float;  (** Seconds between checkpoint sweeps. *)
  heartbeat_period : float;  (** Seconds between heartbeat probes. *)
  threshold : int;  (** Missed heartbeats before ConfirmDead. *)
  crash_after : float;  (** Power failure, seconds into the workload. *)
  reboot_after : float;  (** Reboot, seconds after the power failure. *)
  duration : float;  (** Seconds of workload. *)
  period : float;  (** Seconds between calls (open loop). *)
}

val default : config
(** The E15 gate at its 1.0 s checkpoint period: seed 53, heartbeat
    0.25 s x 3, power failure at 6 s, reboot 4 s later, 16 s of calls
    every 0.1 s. *)

type report

val run : config -> report
(** Deterministic: the same config yields a byte-identical {!to_json}. *)

val violations : report -> string list
(** The E15 floors, one line per breach: durability (no update acked
    before an object's last pre-crash checkpoint is lost, every object
    answers), detection within
    [threshold * (heartbeat + probe timeout) + heartbeat + 0.5 s] and a
    bounded MTTR, and fencing (no zombie answered, every stale
    placement fenced). Empty iff every floor holds. *)

val to_json : report -> string
(** One BENCH_E15.json row. *)

val print_table : report list -> unit
(** The E15 table, one row per report, titled from the first. *)
