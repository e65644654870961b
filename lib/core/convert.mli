(** Decoding helpers shared by the core implementation units.

    All argument records use the same conventions: optional fields are
    encoded as [List []] / [List [x]]; LOIDs, addresses and bindings use
    their canonical wire encodings. Every helper returns a [result] with
    a human-readable message suitable for a [Bad_args] reply. *)

module Value := Legion_wire.Value
module Loid := Legion_naming.Loid
module Address := Legion_naming.Address
module Binding := Legion_naming.Binding

val field : Value.t -> string -> (Value.t, string) result
val str_field : Value.t -> string -> (string, string) result
val int_field : Value.t -> string -> (int, string) result
val i64_field : Value.t -> string -> (int64, string) result

val bool_field : ?default:bool -> Value.t -> string -> (bool, string) result
(** With [default], a missing field decodes to it. *)

val loid_field : Value.t -> string -> (Loid.t, string) result
val str_list_field : ?default:string list -> Value.t -> string -> (string list, string) result
val loid_list : Value.t -> (Loid.t list, string) result
(** A list of LOIDs; anything else is "expected a list of loids". *)

val loid_list_field : ?default:Loid.t list -> Value.t -> string -> (Loid.t list, string) result

val opt_field :
  Value.t -> string -> (Value.t -> ('a, string) result) -> ('a option, string) result
(** Optional field: absent, or [List []], decode to [None]. *)

val opt_loid_field : Value.t -> string -> (Loid.t option, string) result
val opt_str_field : Value.t -> string -> (string option, string) result
val opt_int_field : Value.t -> string -> (int option, string) result
val opt_address_field : Value.t -> string -> (Address.t option, string) result

val vopt : ('a -> Value.t) -> 'a option -> Value.t
(** Encode an option as [List []] / [List [x]]. *)

val vloids : Loid.t list -> Value.t
val vstrs : string list -> Value.t

val loid_arg : Value.t -> (Loid.t, string) result
val binding_arg : Value.t -> (Binding.t, string) result
