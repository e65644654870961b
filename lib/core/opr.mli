(** Object Persistent Representations (paper §3.1.1).

    "An Object Persistent Representation is a sequential set of bytes
    that represents an Inert object, and that can be used by a
    Magistrate to activate the object." The creation information "may
    take the form of an executable program, the name of an executable, a
    list of steps to follow" (§4.2); ours is the second form — the
    names of implementation units registered in {!Impl}, paired with the
    saved state of each unit (the output of [SaveState]). *)

module Address := Legion_naming.Address
module Value := Legion_wire.Value

type t = {
  kind : string;  (** Counter group of the object (see {!Well_known}). *)
  units : string list;
      (** Implementation-unit names, dispatch-precedence order. *)
  states : (string * Value.t) list;
      (** Per-unit saved state, keyed by unit name. Units without an
          entry start from their factory defaults. *)
  binding_agent : Address.t option;
      (** The Object Address of the object's Binding Agent — "the
          persistent state of each Legion object contains the Object
          Address of its Binding Agent" (§3.6). *)
  cache_capacity : int option;
      (** Bound on the comm-layer binding cache. *)
}

val make :
  ?states:(string * Value.t) list ->
  ?binding_agent:Address.t ->
  ?cache_capacity:int ->
  kind:string ->
  units:string list ->
  unit ->
  t

val to_blob : t -> string
(** The "sequential set of bytes" stored on a Jurisdiction's disks and
    shipped between Magistrates by [Copy]/[Move]. *)

val of_blob : string -> (t, string) result

val size_bytes : t -> int
