(** Bounded LRU map, the store behind the comm layer's binding cache
    ({!Legion_naming.Cache}) and the runtime's exactly-once dedup table.

    Each value carries its own key (the [key] function given to
    {!Make.create}), so an entry is the value and its two recency links.
    A touch relinks in place and allocates nothing, and eviction takes
    the least recently used entry without scanning. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : ?capacity:int -> key:('v -> K.t) -> unit -> 'v t
  (** [capacity] of [None] (default) is unbounded; [Some 0] keeps
      nothing. @raise Invalid_argument on a negative capacity. *)

  val find : 'v t -> K.t -> 'v option
  (** Lookup; a hit becomes the most recently used entry. *)

  val peek : 'v t -> K.t -> 'v option
  (** Lookup without touching the entry's recency. *)

  val add : 'v t -> 'v -> unit
  (** Insert or replace the entry under [key v], as the most recently
      used. Inserting a new key at capacity first evicts the least
      recently used entry. *)

  val remove : 'v t -> K.t -> unit
  (** Idempotent removal. *)

  val clear : 'v t -> unit
  (** Drop every entry and reset the eviction count. *)

  val length : 'v t -> int

  val evictions : 'v t -> int
  (** Entries evicted by {!add} since creation or the last {!clear}. *)
end
