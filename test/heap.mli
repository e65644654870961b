(** Imperative binary min-heap: the event engine's oracle. The model in
    test_sim.ml keeps every scheduled event in one of these, cancelled
    ones included, and skips the cancelled ones as it pops them; the
    engine, which removes a cancelled event from its own heap at once,
    must fire exactly what the model fires.

    Elements are ordered by a user-supplied comparison fixed at creation.
    All operations are the standard O(log n) / O(1) bounds. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order; O(n). *)

val drain_sorted : 'a t -> 'a list
(** Remove everything, returned in ascending order; empties the heap. *)
