(** Keyed table with a recency order: the store behind the comm layer's
    binding cache ({!Legion_naming.Cache}) and, with no capacity, the
    ordered registries of the placement path (a class's logical table, a
    Magistrate's records, a Host Object's residents).

    Each value carries its own key (the [key] function given to
    {!S.create}). The entries sit in flat arrays in touch order, each
    beside its key's hash, under an open-addressing index: there is no
    per-entry node and no bucket. A hit returns the stored option and
    allocates nothing, and an insert allocates only that option, apart
    from the arrays doubling as the table grows. Eviction takes the
    least recently used entry without scanning. A table that only
    {!S.peek}s and never {!S.add}s a key already present keeps its
    entries in insertion order, newest first. *)

module type S = sig
  type key
  type 'v t

  val create : ?capacity:int -> key:('v -> key) -> unit -> 'v t
  (** [capacity] of [None] (default) is unbounded; [Some 0] keeps
      nothing. @raise Invalid_argument on a negative capacity. *)

  val find : 'v t -> key -> 'v option
  (** Lookup; a hit becomes the most recently used entry. *)

  val peek : 'v t -> key -> 'v option
  (** Lookup without touching the entry's recency. *)

  val add : 'v t -> 'v -> unit
  (** Insert or replace the entry under [key v], as the most recently
      used. Inserting a new key at capacity first evicts the least
      recently used entry; replacing a key never evicts. *)

  val remove : 'v t -> key -> unit
  (** Idempotent removal. *)

  val fold : ('v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  (** [fold f t init] is [List.fold_right f l init], where [l] lists
      the entries most recently used first: [fold List.cons t []] is
      that list. [f] must not change [t]. *)

  val clear : 'v t -> unit
  (** Drop every entry and reset the eviction count. *)

  val length : 'v t -> int

  val evictions : 'v t -> int
  (** Entries evicted by {!add} since creation or the last {!clear}. *)
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t
