(** The runtime's exactly-once table (PROTOCOL §6e).

    One entry per (caller host, call id) whose execution the runtime has
    started. An entry is {e running} until its reply is recorded, then
    {e replied}: a duplicate delivery of a running call is absorbed, one
    of a replied call replays the recorded reply. The table holds at
    most [capacity] entries and evicts the least recently touched one;
    an arrival that finds its key touches it, recording a reply does
    not.

    Entries sit in parallel arrays in touch order, and an
    open-addressing index maps a key to its position, so keeping a call
    allocates nothing: only the reply it records outlives the call. *)

module Loid := Legion_naming.Loid

type t

type reply = (Legion_wire.Value.t, Err.t) result

type lookup =
  | Absent
  | Running of { loid : Loid.t; meth : string }
  | Replied of { loid : Loid.t; meth : string; reply : reply }

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val find : t -> host:int -> id:int -> lookup
(** The entry under the key; a hit becomes the most recently touched
    entry. Allocates only on a hit. *)

val add : t -> host:int -> id:int -> loid:Loid.t -> meth:string -> int
(** Enter a running entry as the most recently touched, replacing one
    under the same key; a new key at capacity first evicts the least
    recently touched entry. [loid] and [meth] are what a later {!find}
    reports. Returns the entry's serial number, which no other entry of
    the table ever carries. *)

val record : t -> host:int -> id:int -> serial:int -> reply -> unit
(** Record the reply of the entry [add] numbered [serial]. A reply
    whose entry has left the table is dropped, even when the key has
    since been added again: that later entry is a different execution. *)

val remove : t -> host:int -> id:int -> unit
(** Drop the entry under the key, if any. *)

val length : t -> int

val entries : t -> ((int * int) * lookup) list
(** Every entry as [((host, id), state)], most recently touched first. *)
