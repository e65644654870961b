(** Bindings (paper §3.5).

    A binding is a triple of a LOID, an Object Address, and the time at
    which the binding becomes invalid ([None] meaning "never explicitly
    invalid"). Bindings are first-class: they are passed around the
    system and cached inside objects, Binding Agents, and classes. *)

type t

val make :
  ?expires:float -> ?epoch:int -> loid:Loid.t -> address:Address.t -> unit -> t

val loid : t -> Loid.t
val address : t -> Address.t

val expires : t -> float option
(** Absolute simulated time of expiry, or [None] for never. *)

val epoch : t -> int
(** Incarnation number of the placement this binding points at
    (default [0]). Bumped each time a Magistrate reactivates the
    object, so a binding minted before a crash can be recognised as
    pointing at a fenced zombie placement. *)

val is_valid : now:float -> t -> bool
(** True when [expires] is [None] or strictly in the future. *)

val with_expiry : t -> float option -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_value : t -> Legion_wire.Value.t
(** A [Value.Native] that stands for the binding's record
    [{loid; addr; exp; epo}]; see {!Legion_wire.Value.Native}. *)

val of_value : Legion_wire.Value.t -> (t, string) result
(** Takes back the binding [to_value] made without parsing; parses any
    other value as the record. A missing [epo] field reads as epoch 0
    (bindings minted before epochs existed); a present one that is not
    an [Int] is an error. *)
