(** E17 — self-healing replication: repair sweeps, quorum fencing, and
    anti-entropy after a partition heal.

    The scenario the E17 bench and [legion-sim replicate] share, in two
    parts on fixed topologies:

    - {e repair}: a counter replicated [replicas] ways over four sites
      of three hosts with the repair manager armed; the current
      primary's host is crashed every [kill_every] seconds while an
      open-loop workload hammers the LOID.
    - {e split}: a five-member quorum group over three sites, cut 3/2.
      Fenced, the minority's writes are refused with [No_quorum] before
      anything is applied and the heal-triggered anti-entropy sweep
      drains divergence to zero. The unfenced baseline's failed
      minority writes still mutate the reachable members, and the
      divergence survives the heal. *)

type config = {
  seed : int64;  (** Repair boot seed; the split runs boot [seed + 2]. *)
  replicas : int;  (** Replication factor (at most 4). *)
  kills : int;  (** Primary crashes, one every [kill_every] seconds. *)
  kill_every : float;
  period : float;  (** Seconds between calls (open loop). *)
}

val default : config
(** The E17 gate: seed 29, 3 replicas, 3 kills 4 s apart, a call every
    50 ms. *)

type report

val run : config -> report
(** The repair part, then the fenced split, then the unfenced one.
    Deterministic: the same config yields a byte-identical
    {!to_json}. *)

val violations : report -> string list
(** The E17 floors, one line per breach: at least one call issued
    and at least 99% of them answered across the kill sweep, the
    replication factor back at [replicas]
    before each next kill and at the end, one traced loss and repair
    per kill; every fenced minority write refused with nothing applied,
    no divergence after anti-entropy, one final state, NoQuorum and
    Reconcile traced; the unfenced baseline drifted and stayed
    divergent. Empty iff every floor holds. *)

val to_json : report -> string
(** The BENCH_E17.json document. [availability_pct] is [null] when the
    kill sweep issued no call. *)

val print : report -> unit
(** The E17a (repair) and E17b (split) tables. *)
