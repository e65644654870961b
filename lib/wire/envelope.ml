(* End-to-end integrity for wire payloads: a CRC-32 (IEEE 802.3,
   reflected polynomial 0xEDB88320) over the encoded body, carried in a
   4-byte big-endian header. Pure OCaml, table-driven — no external
   dependency, deterministic across platforms.

   The checksum is an integrity check against the simulated corruption
   fault (flipped bytes in flight), not an authenticity mechanism: an
   adversary who can write the header can of course forge it. *)

(* Computed on native ints (a 63-bit int holds the 32-bit state), so
   no Int32 is boxed per byte. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_int s ~off ~len =
  let c = ref 0xFFFF_FFFF in
  for i = off to off + len - 1 do
    c :=
      crc_table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFF_FFFF

let crc32 s = Int32.of_int (crc32_int s ~off:0 ~len:(String.length s))

let header_bytes = 4

let seal v =
  let body = Codec.encode v in
  let n = String.length body in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be b 0 (Int32.of_int (crc32_int body ~off:0 ~len:n));
  Bytes.blit_string body 0 b header_bytes n;
  Bytes.unsafe_to_string b

let unseal s =
  if String.length s < header_bytes then
    Error (Printf.sprintf "envelope: %d byte(s), need a %d-byte checksum header"
             (String.length s) header_bytes)
  else
    let declared = Int32.to_int (String.get_int32_be s 0) land 0xFFFF_FFFF in
    let len = String.length s - header_bytes in
    let actual = crc32_int s ~off:header_bytes ~len in
    if declared <> actual then
      Error
        (Printf.sprintf "envelope: checksum mismatch (declared %08x, computed %08x)"
           declared actual)
    else
      match Codec.decode (String.sub s header_bytes len) with
      | Ok v -> Ok v
      | Error e -> Error ("envelope: body " ^ e)
