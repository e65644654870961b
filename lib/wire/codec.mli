(** Binary codec for {!Value.t}.

    The encoding is a tagged, length-prefixed format: one tag byte per
    value, big-endian fixed-width scalars, and 32-bit length prefixes for
    strings, lists and records. It is the on-"disk" format of Object
    Persistent Representations and the on-"wire" format of messages.

    [decode (encode v) = Ok v] for every [v] (tested by property tests);
    decoding arbitrary bytes never raises. *)

val encode : Value.t -> string

val decode : string -> (Value.t, string) result
(** Decode a complete buffer; trailing bytes are an error. The error
    string describes the first malformation encountered. Nesting beyond
    256 levels is rejected (stack-safety against crafted inputs);
    legitimate payloads nest a handful of levels. *)

