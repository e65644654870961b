(** Named monotonic counters.

    The scalability experiments of the paper's §5 are statements about the
    number of requests arriving at individual system components. Every
    component in the simulator owns a [Counter.t] registered in a
    [Registry.t]; experiments read the registry after a run.

    Counters are grouped by a [group] string (e.g. ["binding_agent"],
    ["class"], ["magistrate"]) so queries like "the most-loaded binding
    agent" are one call. *)

type t

val value : t -> int
val incr : t -> unit
val add : t -> int -> unit
val name : t -> string
val group : t -> string

module Registry : sig
  type r

  val create : unit -> r

  val make : r -> group:string -> name:string Lazy.t -> t
  (** Create and register a counter. Every call registers a new one:
      the runtime makes one per process, and no two of its names are
      the same. [name] is forced when it is first read, so a counter
      nobody reads by name never formats it. *)

  val all : r -> t list
  val group_total : r -> string -> int
  val group_max : r -> string -> (string * int) option
  (** Counter name and value of the largest counter in a group. *)

  val reset : r -> unit
  (** Zero every counter, keeping registrations. *)

  val pp : Format.formatter -> r -> unit
end
