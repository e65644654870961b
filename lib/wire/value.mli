(** The Legion data model: a self-describing value type.

    The paper assumes all inter-object traffic is describable in an IDL
    (CORBA IDL or MPL). [Value.t] is the runtime representation of that
    data model: every method argument, return value, Object Persistent
    Representation, and saved object state is a [Value.t], so it can be
    marshalled across the simulated network and onto simulated disks with
    one codec (see {!Codec}).

    A naming value (a binding, LOID or address) travels as itself, in
    a {!Native}: the callee takes the caller's typed value back without
    parsing, and its record is built only for whatever reads it as
    fields or bytes. *)

type native = ..
(** The typed payloads a {!Native} carries. [Legion_naming] extends it
    with its [Binding], [Loid] and [Address] cases. *)

type t =
  | Unit
  | Bool of bool
  | Int of int  (** OCaml native int; encoded as 64-bit. *)
  | I64 of int64
  | Float of float
  | Str of string
  | Blob of string  (** Uninterpreted bytes (e.g. executables in OPRs). *)
  | List of t list
  | Record of (string * t) list
      (** Ordered field list; field names must be distinct. *)
  | Native of { native : native; size : int; record : unit -> t }
      (** A typed value that stands for [record ()], which builds its
          record form (never itself a [Native]; its fields may be).
          [size] is [size_bytes (record ())], computed by formula when
          the value is made. {!Codec.encode}, {!equal}, {!compare},
          {!pp}, {!depth} and the accessors read the record, so a
          [Native] and its record are interchangeable everywhere but
          in memory; decoding never yields a [Native]. Polymorphic
          comparison raises on it ([record] is a closure): use
          {!equal} and {!compare}. *)

type error = [ `Wrong_type of string | `Missing_field of string ]

val pp_error : Format.formatter -> error -> unit

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Constructors} *)

val of_int : int -> t
val of_string : string -> t
val of_list : ('a -> t) -> 'a list -> t
val of_option : ('a -> t) -> 'a option -> t
(** [None] encodes as [List []], [Some x] as [List [f x]]. *)

val record : (string * t) list -> t
(** @raise Invalid_argument on duplicate field names. *)

(** {1 Accessors}

    All return [Error (`Wrong_type _)] when the value has a different
    constructor than requested. *)

val to_bool : t -> (bool, error) result
val to_int : t -> (int, error) result
val to_i64 : t -> (int64, error) result
val to_float : t -> (float, error) result
val to_str : t -> (string, error) result
val to_blob : t -> (string, error) result
val to_list : (t -> ('a, error) result) -> t -> ('a list, error) result
val to_option : (t -> ('a, error) result) -> t -> ('a option, error) result

val field : t -> string -> (t, error) result
(** Look a field up in a [Record]. *)

val field_opt : t -> string -> t option

(** {1 Structure} *)

val depth : t -> int
(** 1 for scalars; nesting depth otherwise. *)

val size_bytes : t -> int
(** Encoded size in bytes under {!Codec}; used for message-size
    accounting in the network model without actually encoding. A
    [Native] answers its [size] without building its record. *)
