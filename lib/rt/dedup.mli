(** Bounded LRU map — the store behind the runtime's exactly-once
    dedup cache ({!Runtime}): keyed by (caller host, call id), it
    remembers in-progress and completed calls so a retransmitted or
    network-duplicated request replays the recorded reply instead of
    re-executing the method. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument if [capacity <= 0]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or update (refreshing recency); inserting past capacity
    evicts the least recently used entry. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Idempotent removal. *)
