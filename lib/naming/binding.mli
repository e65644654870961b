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
    (default [0]). A Magistrate stamps the placement's current epoch,
    bumped each time it reactivates the object; a class answering from
    its logical table stamps [0]. Only {!equal} reads it, so two
    bindings of one address minted by a class and by a Magistrate are
    different bindings to {!Cache.find_refresh} and
    {!Cache.invalidate_exact}. *)

val is_valid : now:float -> t -> bool
(** True when [expires] is [None] or strictly in the future. *)

val with_expiry : t -> float option -> t

val equal : t -> t -> bool
(** Field by field, the epoch included: a refresh that reports a stale
    binding matches a cached one only if both carry the same epoch. *)

val pp : Format.formatter -> t -> unit

val to_value : t -> Legion_wire.Value.t
(** A [Value.Native] that stands for the binding's record
    [{loid; addr; exp; epo}]; see {!Legion_wire.Value.Native}. *)

val of_value : Legion_wire.Value.t -> (t, string) result
(** Takes back the binding [to_value] made without parsing; parses any
    other value as the record. A missing [epo] field reads as epoch 0
    (bindings minted before epochs existed); a present one that is not
    an [Int] is an error. *)

(** {1 GetBinding requests}

    Fig. 17 and §3.6 define one request, answered hop by hop by the
    runtime, the Binding Agents and the classes: the binding of a LOID,
    or a fresh binding in place of one its holder found stale. *)

type request =
  | Lookup of Loid.t  (** [GetBinding(loid)]. *)
  | Refresh of t
      (** [GetBinding(binding)]: its holder failed to reach this
          binding, so every hop treats it as suspect (PROTOCOL §5.3). *)

val request_loid : request -> Loid.t
(** The LOID to bind: a refresh's is its binding's. *)

val request_to_value : request -> Legion_wire.Value.t
(** The LOID or the binding, as {!Loid.to_value} or {!to_value}. *)

val request_of_value : Legion_wire.Value.t -> request option
(** A LOID if the value reads as one, else a binding; [None] when it is
    neither. *)
