(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Prng.t] so that experiments are reproducible bit-for-bit from a seed.
    The generator is the splitmix64 sequence of Steele, Lea and Flood,
    which has a 64-bit state, passes BigCrush, and is cheap enough to use
    on every simulated message. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator whose future stream equals
    [t]'s future stream. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. The two
    streams are statistically independent; used to give each simulated
    component its own stream so that adding components does not perturb
    the draws of existing ones. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p] (clamped to [0,1]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean; used for Poisson
    arrival processes in the workload generators. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a list
(** [sample_without_replacement t k arr] is [k] distinct elements of
    [arr] in random order. @raise Invalid_argument if
    [k < 0 || k > Array.length arr]. *)
