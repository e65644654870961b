(** Object Addresses (paper §3.4).

    An {e Object Address Element} carries a 32-bit address-type tag and
    type-specific payload (the paper reserves 256 bits; we keep the same
    structure with typed payloads). An {e Object Address} is a non-empty
    list of elements together with a {e semantic} describing how the list
    is used — the hook that enables system-level replication (§4.3). *)

type element =
  | Ip of { host : int32; port : int }
      (** A normal IP endpoint: 32-bit address + 16-bit port. *)
  | Ip_node of { host : int32; port : int; node : int }
      (** IP endpoint on a multiprocessor, with a 32-bit platform-specific
          internal node number (paper §3.4). *)
  | Sim of { host : int; slot : int }
      (** An endpoint in the simulated internetwork: simulator host id and
          a per-host delivery slot (the simulator's "port"). *)
  | Raw of { addr_type : int32; payload : string }
      (** Escape hatch for address types the model does not interpret. *)

type semantic =
  | All  (** Deliver to every element (replica broadcast). *)
  | Any_random  (** Pick one element uniformly at random. *)
  | First_k of int  (** Deliver to the first [k] elements of the list. *)
  | K_random of int
      (** Deliver to [k] of the N elements chosen at random without
          replacement — the paper's "k of the N addresses in the list"
          option (§3.4). *)
  | Ordered_failover
      (** Try elements in order until one accepts delivery. *)
  | Custom of string
      (** User-defined semantic, named; the paper provides for
          user-definable extensions. Interpreted by the application. *)

type t

val make : ?semantic:semantic -> element list -> t
(** Defaults to [Ordered_failover], the semantic of a singleton address.
    @raise Invalid_argument on an empty element list. *)

val singleton : element -> t
val elements : t -> element list
val semantic : t -> semantic

val addr_type : element -> int32
(** The 32-bit address-type tag: 1 for IP, 2 for IP+node, 3 for Sim,
    or the [Raw] tag. *)

val sim_host : element -> int option
(** The simulator host id, when the element is a [Sim] endpoint. *)

val targets : t -> Legion_util.Prng.t -> element list
(** Resolve the semantic into the concrete delivery list: all elements
    for [All]; one random element for [Any_random]; the first [k] for
    [First_k k]; [k] distinct random elements for [K_random k]; the
    elements in order for [Ordered_failover] and [Custom _]
    (interpretation of custom semantics beyond ordering is
    application-level). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val to_value : t -> Legion_wire.Value.t
(** A [Value.Native] that stands for the address's record
    [{sem; els}]; see {!Legion_wire.Value.Native}. *)

val of_value : Legion_wire.Value.t -> (t, string) result
(** Takes back the address [to_value] made without parsing; parses any
    other value as the record. *)

val size_bytes : t -> int
(** [Value.size_bytes] of the address's record, by formula. *)
