(** E18 — the planetary sweep.

    Re-runs the §5 mechanism experiments (E2 binding-cache traffic, E3
    k-ary Binding Agent trees, E4 class cloning) at planetary scale —
    10⁵–10⁶ objects over 10³+ hosts — plus a raw event-heap kernel
    that pushes the simulator core itself past 10⁷ events. The sweep is
    shared by E18 in the bench (which adds wall-clock and RSS gates),
    the [legion-sim scale] subcommand, and the determinism regression
    test.

    Everything in a {!report} is a deterministic function of the
    {!config}: wall-clock never enters, so the same seed must produce a
    byte-identical {!to_json} — that is the refactor-safety contract
    for the simulator hot path. *)

type config = {
  seed : int64;
  sites : int;
  hosts_per_site : int;
  objects : int;  (** cache-kernel population *)
  calls : int;  (** cache-kernel invocations *)
  zipf_s : float;  (** popularity skew of the call targets *)
  cache_capacity : int option;  (** measurement client's comm cache *)
  tree_fanout : int;
  tree_levels : int;  (** agent-tree depth (3–4 at full scale) *)
  tree_leaves : int;
  tree_classes : int;
  clones : int;
  clone_creates : int;
  queue_events : int;  (** raw engine kernel event budget *)
}

val default : config
(** The full planetary configuration: 32 sites x 32 hosts, 10⁵
    objects, 10⁷ raw queue events. *)

val smoke : config
(** A CI-sized configuration (seconds, not minutes). *)

type kernel = {
  k_name : string;
  k_events : int;  (** engine events fired *)
  k_clock : float;  (** final virtual time *)
  k_msgs : int;
  k_bytes : int;
  k_drops : int;
  k_metrics : (string * float) list;  (** kernel-specific, deterministic *)
  k_digest : int;  (** order-sensitive digest of the retained trace *)
}

type report = { cfg : config; kernels : kernel list; total_events : int }

val run : ?progress:(string -> unit) -> config -> report
(** Run all four kernels (queue, cache, tree, clone), each in its own
    freshly booted system. [progress] receives occasional human-facing
    status lines (never part of the report). *)

val to_json : report -> string
(** Deterministic JSON rendering: same seed, same bytes. *)

val print : report -> unit
(** The E18 table: one row per kernel (events, virtual clock, messages,
    drops, trace digest). *)
