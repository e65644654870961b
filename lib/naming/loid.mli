(** Legion Object Identifiers (paper §3.2).

    Every Legion object is named by a LOID: a 64-bit {e Class Identifier},
    a 64-bit {e Class Specific} field, and a P-bit {e Public Key} (the
    paper leaves P open; here it is the length of an arbitrary byte
    string, possibly empty).

    By convention (paper §3.7), class objects have Class Specific = 0, and
    the class responsible for locating a non-class object is found by
    zeroing the Class Specific field of the instance's LOID. *)

type t

val make : ?public_key:string -> class_id:int64 -> class_specific:int64 -> unit -> t

val class_id : t -> int64
val class_specific : t -> int64
val public_key : t -> string

val is_class : t -> bool
(** True iff the Class Specific field is zero. *)

val wildcard : t
(** The all-zero LOID, no key (PROTOCOL §3). As a call's destination it
    matches whatever process holds the addressed slot: an object reaches
    its Binding Agent by Object Address alone, since §3.6 keeps only the
    Agent's address in persistent state. *)

val is_wildcard : t -> bool
(** True iff the Class Identifier and Class Specific fields are both
    zero, whatever the key. *)

val responsible_class : t -> t
(** The LOID of the class responsible for locating this object: same
    Class Identifier, Class Specific zeroed, no public key (paper
    §4.1.3). [responsible_class l = l] when [is_class l] holds and [l]
    has no public key. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A non-negative hash, equal for {!equal} LOIDs: integer arithmetic on
    the two 64-bit fields, plus [Hashtbl.hash] of the public key when
    there is one. It places a LOID in {!Table} and {!Lru} only; no
    iteration order the simulation reads depends on its value. *)

val pp : Format.formatter -> t -> unit
(** Renders as ["L<class>.<specific>"] (hex), with ["+key"] appended when
    a public key is present. *)

val to_string : t -> string

val to_value : t -> Legion_wire.Value.t
(** A [Value.Native] that stands for the LOID's record
    [{cid; spec; key}]; see {!Legion_wire.Value.Native}. *)

val of_value : Legion_wire.Value.t -> (t, string) result
(** Takes back the LOID [to_value] made without parsing; parses any
    other value as the record. *)

val size_bytes : t -> int
(** [Value.size_bytes] of the LOID's record, by formula. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Lru : Legion_util.Lru.S with type key = t
(** The keyed, ordered table shared by the comm layer's binding cache
    and the placement registries (a class's logical table, a
    Magistrate's records, a Host Object's residents). *)

module Table : sig
  (** Imperative hash table keyed by LOID. *)

  type loid := t
  type 'a t

  val create : unit -> 'a t
  val find : 'a t -> loid -> 'a option
  val mem : 'a t -> loid -> bool
  val set : 'a t -> loid -> 'a -> unit
  val remove : 'a t -> loid -> unit
  val length : 'a t -> int
  val iter : (loid -> 'a -> unit) -> 'a t -> unit
  val fold : (loid -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  val to_list : 'a t -> (loid * 'a) list
end
