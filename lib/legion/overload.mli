(** E16 — overload: admission control, load shedding, circuit breakers.

    The scenario the E16 bench and [legion-sim overload] share. A
    serial counter (one request at a time, a fixed service time) on two
    sites of three hosts is driven by an open-loop arrival ramp scaled
    off its measured saturation rate, in two boots of the same system:

    - {e baseline}: admission and breakers off. The serial queue grows
      without bound past the knee and retransmissions amplify the load,
      so goodput collapses.
    - {e protected}: per-object inflight/queue budgets shed the excess
      with [Err.Overloaded] (carrying a retry_after hint), callers back
      off by the hint, and per-destination circuit breakers fail the
      worst bursts fast. Goodput holds and the p99 of successful calls
      stays bounded past the knee. *)

type config = {
  seed : int64;
  rates : float list;
      (** Offered-load ramp as multiples of the measured saturation
          rate, one step each. *)
  step : float;  (** Virtual seconds per ramp step. *)
  service : float;  (** Service time of the serial counter. *)
}

val default : config
(** The E16 gate: seed 53, rates 0.5x..2.5x in 0.5x steps, 5 s per step,
    20 ms service. *)

type report

val run : config -> report
(** Run the baseline arm, then the protected arm. Deterministic: the
    same config yields a byte-identical {!to_json}. *)

val p99_bound : float
(** The protected p99 ceiling: one call budget plus slack. *)

val violations : report -> string list
(** The E16 gates, one line per breach: protected goodput at every step
    at or past 2x saturation stays at least 70% of its peak with p99
    under {!p99_bound}; the protected arm shed; and the baseline
    collapsed (last-step goodput under half its peak, or a past-knee p99
    over the bound). Empty iff every gate holds. *)

val to_json : report -> string
(** The BENCH_E16.json document. *)

val print : report -> unit
(** The E16 table (both arms) and one summary line per arm. *)
