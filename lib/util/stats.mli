(** Summary statistics for experiment measurements.

    A [Stats.t] accumulates samples and reports count, mean, variance,
    extrema and percentiles. Percentile queries sort an internal copy of
    the retained samples; accumulation is O(1) amortised. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. *)

val add_list : t -> float list -> unit

val count : t -> int

val is_empty : t -> bool
(** [true] iff no samples have been recorded. Check before calling the
    partial accessors {!min}, {!max}, {!percentile} and {!median}, which
    all raise on an empty accumulator. *)

val total : t -> float
val mean : t -> float
(** Mean of the samples; [0.] when empty. *)

val variance : t -> float
(** Population variance; [0.] when fewer than two samples. *)

val min : t -> float
(** Smallest sample seen.
    @raise Invalid_argument ["Stats.min: empty"] when no sample has been
    recorded — there is no neutral element to return; guard with
    {!is_empty}. *)

val max : t -> float
(** Largest sample seen.
    @raise Invalid_argument ["Stats.max: empty"] when no sample has been
    recorded; guard with {!is_empty}. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100], by linear interpolation between
    closest ranks. @raise Invalid_argument when empty or [p] out of
    range. *)

val median : t -> float

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator holding the samples of both. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** Render as "n=… mean=… p50=… p99=… max=…". *)

(** {1 Histograms} *)

module Histogram : sig
  type h

  val create : buckets:float array -> h
  (** [create ~buckets] uses [buckets] as ascending upper bounds; an
      implicit overflow bucket catches the rest.
      @raise Invalid_argument if bounds are not strictly ascending or
      empty. *)

  val linear : lo:float -> width:float -> count:int -> h
  (** [count] equal-width buckets: upper bounds
      [lo + width], [lo + 2*width], …, plus the implicit overflow bucket.
      @raise Invalid_argument when [count <= 0] or [width <= 0]. *)

  val bounds : h -> float array
  (** A copy of the upper bounds (excludes the overflow bucket). *)

  val add : h -> float -> unit
  val counts : h -> (float option * int) list
  (** Bucket upper bounds paired with counts; [None] is the overflow
      bucket. *)

  val total : h -> int

  val merge : h -> h -> h
  (** Cell-wise sum into a fresh histogram. Merging is associative and
      commutative, so snapshots from independent components can be
      combined in any order.
      @raise Invalid_argument when the two histograms' bounds differ. *)

  val percentile : h -> float -> float
  (** Nearest-rank percentile resolved to bucket granularity: the upper
      bound of the bucket holding the k-th smallest sample,
      k = ceil(p/100 * total) clamped to [1, total]; [infinity] when that
      sample overflowed the last bound. Agrees with {!Stats.percentile}
      over the same samples to within one bucket width at integral ranks.
      @raise Invalid_argument when empty or [p] outside [0,100]. *)

  val pp : Format.formatter -> h -> unit
end
