(** Checksummed wire envelope: end-to-end integrity over {!Codec}.

    The network model normally carries payloads as typed messages
    (zero-copy through the simulator), but a payload selected for the
    corruption fault travels as real bytes: {!seal} prefixes the
    {!Codec} encoding of its record form with a CRC-32 of the body,
    the adversary mutates
    bytes, and {!unseal} at the receiver rejects anything whose
    checksum or body no longer parses — a counted, fail-closed drop,
    never an exception. The ROADMAP's real-UDP backend gives every
    message this framing. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of the whole string. *)

val header_bytes : int
(** Size of the checksum header {!seal} prepends (4). *)

val seal : Value.t -> string
(** [seal v] is the 4-byte big-endian CRC-32 of [Codec.encode v]
    followed by that encoding. *)

val unseal : string -> (Value.t, string) result
(** Verify the header checksum against the body, then decode. Total:
    any truncation, checksum mismatch, or malformed body yields
    [Error] with a description — never raises. *)
