(** Workload distributions for experiments.

    The evaluation harness drives the system with synthetic load:
    Zipf-skewed object popularity (some objects are hot, most are cold —
    the standard model for naming-service traffic) and Poisson arrival
    processes. Both draw from an explicit {!Prng.t} for
    reproducibility. *)

type zipf

val zipf : Prng.t -> n:int -> s:float -> zipf
(** A Zipf(s) sampler over ranks [0 .. n-1]; rank 0 is the most popular.
    [s = 0.] degenerates to uniform. @raise Invalid_argument if
    [n <= 0] or [s < 0.]. *)

val zipf_draw : zipf -> int

val zipf_pmf : zipf -> int -> float
(** The probability of a rank (for assertions about the sampler). *)

type poisson

val poisson_process : Prng.t -> rate:float -> poisson
(** Arrival process with the given mean events per unit time.
    @raise Invalid_argument if [rate <= 0.]. *)

val arrivals_until : poisson -> horizon:float -> float list
(** Arrival instants in [0, horizon), ascending. *)
