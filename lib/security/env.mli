(** Call environments (paper §2.4).

    Every method invocation is performed in an environment consisting of
    a triple of object names: the operative {e Responsible Agent} (the
    principal on whose behalf the call chain runs), the {e Security
    Agent} (the object that defines policy for the chain), and the
    {e Calling Agent} (the immediate caller). *)

type t = {
  responsible : Legion_naming.Loid.t;
  security : Legion_naming.Loid.t;
  calling : Legion_naming.Loid.t;
}

val make : responsible:Legion_naming.Loid.t -> security:Legion_naming.Loid.t -> calling:Legion_naming.Loid.t -> t

val of_self : Legion_naming.Loid.t -> t
(** A self-sovereign environment: all three roles are the given object.
    Used by bootstrap objects and simple clients. *)

val delegate : t -> calling:Legion_naming.Loid.t -> t
(** Keep RA and SA, replace the Calling Agent — what an object does when
    it makes calls on behalf of an incoming request. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_value : t -> Legion_wire.Value.t
val of_value : Legion_wire.Value.t -> (t, string) result

val size_bytes : t -> int
(** [Value.size_bytes (to_value t)], without building the record. *)
