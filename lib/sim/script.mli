(** Scripted fault schedules over the virtual clock.

    A fault-injection experiment is a {e schedule}: at these instants,
    set the drop rate; between those, partition two sites; crash a host
    here and restart it there. The combinators below compile such
    schedules onto the engine's event queue. They know nothing about
    the network — actions are plain closures, so the same schedule
    shapes can drive drop rates, partitions, host power, or anything
    else an experiment wants to vary over time. Schedules are
    deterministic: same engine, same script, same firing order. *)

type t := Engine.t

val at : t -> time:float -> (unit -> unit) -> unit
(** Run the action at the absolute virtual [time]. *)

val every : t -> period:float -> ?start:float -> until:float -> (unit -> unit) -> unit
(** Run the action at [start] (default [period] from now) and then every
    [period] seconds, while the firing time is [<= until].
    @raise Invalid_argument if [period <= 0]. *)

val ramp :
  t ->
  start:float ->
  until:float ->
  steps:int ->
  values:float list ->
  (float -> unit) ->
  unit
(** Step through [values] left to right: value [i] is applied at
    [start +. i * (until - start) / steps]; when [values] is shorter
    than [steps + 1] the last value holds. A drop-rate ramp is
    [ramp eng ~start:0. ~until:60. ~steps:3 ~values:[0.; 0.05; 0.2; 0.]
    (Network.set_drop_rate net)].
    @raise Invalid_argument if [steps < 1] or [values = []]. *)

val load_ramp :
  t ->
  start:float ->
  until:float ->
  steps:int ->
  rates:float list ->
  (int -> unit) ->
  unit
(** An open-loop arrival generator whose rate (arrivals per virtual
    second) steps through [rates] on the same grid as {!ramp}. Arrivals
    are spaced [1 /. rate] apart and are {e not} gated on completions —
    this is the generator that drives a service past saturation, where a
    closed loop would self-throttle. On every rate step the pending
    arrival is cancelled and re-spaced to
    [max now (last_arrival + 1/new_rate)], so the new rate takes effect
    at the step boundary: a step up no longer stalls for one stale
    old-rate gap, and a step down never over-fires. The action receives
    the arrival's 1-based sequence number. A rate of [0.] pauses the
    generator for that step.
    @raise Invalid_argument if [steps < 1], [rates = []] or any rate is
    negative. *)

(** {1 Workload model}

    "Millions of users" means skew, not uniform load: object popularity
    is Zipf, demand breathes diurnally, and flash crowds land from
    specific places. {!drive} compiles such a workload onto the engine
    as an open-loop arrival stream; every draw comes from the caller's
    {!Legion_util.Prng.t}, so a seed fully determines the schedule. *)

type flash = {
  at : float;  (** When the crowd lands (absolute virtual time). *)
  width : float;  (** How long it stays. *)
  boost : float;  (** Rate multiplier while active ([>= 1]). *)
  site : int option;
      (** Where the crowd comes from: when set, the flash-attributable
          {e excess} traffic (fraction [(boost-1)/boost] of arrivals)
          originates at this site index; the base traffic keeps the
          ambient {!workload.site_mix}. [None] scales all sites. *)
}

type profile = {
  base_rate : float;  (** Mean arrivals per virtual second ([> 0]). *)
  diurnal_amplitude : float;
      (** Sinusoidal modulation depth in [0, 1): the instantaneous rate
          is [base *. (1 + a sin (2 pi t / period))]. [0.] disables. *)
  diurnal_period : float;  (** Period of the diurnal cycle. *)
  flashes : flash list;  (** Flash crowds; boosts multiply if overlapping. *)
}

val steady : ?flashes:flash list -> float -> profile
(** A flat profile at the given rate (no diurnal swing), with optional
    flash crowds. @raise Invalid_argument if the rate is [<= 0]. *)

type workload = {
  objects : int;  (** Population size; arrivals target ranks [0..n-1]. *)
  zipf_s : float;  (** Popularity skew ([0.] = uniform). *)
  site_mix : float array;
      (** Per-site origin weights (normalized internally). *)
  profile : profile;
}

val drive :
  t ->
  prng:Legion_util.Prng.t ->
  workload ->
  start:float ->
  until:float ->
  (seq:int -> obj:int -> site:int -> unit) ->
  unit
(** Generate open-loop arrivals over [(start, until]]: each arrival
    carries a 1-based sequence number, a Zipf-drawn object rank, and an
    origin site index. Spacing follows the profile's instantaneous rate
    (diurnal modulation times the active flash boosts); the generator
    re-spaces itself at every flash edge so discontinuities take effect
    at their instant.
    @raise Invalid_argument on an empty or negative [site_mix], a
    non-positive population, or an invalid profile (see {!steady}). *)

val pulse :
  t -> start:float -> width:float -> on:(unit -> unit) -> off:(unit -> unit) -> unit
(** A transient fault: [on] fires at [start], [off] at
    [start +. width]. Partitions and host crash/restart windows are
    pulses — [on] partitions (or crashes), [off] heals (or restarts). *)
