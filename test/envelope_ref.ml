(* The wire path as it was before it moved to native ints: the codec
   boxed an Int64 per Int, and the CRC-32 kept its state in an Int32.
   The wire tests check [Legion_wire.Codec] and [Legion_wire.Envelope]
   against it byte for byte. The logic is unchanged; a typed naming
   value, which came later, is encoded as its record. *)

module Value = Legion_wire.Value

let tag_unit = '\x00'
let tag_bool = '\x01'
let tag_int = '\x02'
let tag_i64 = '\x03'
let tag_float = '\x04'
let tag_str = '\x05'
let tag_blob = '\x06'
let tag_list = '\x07'
let tag_record = '\x08'

let put_i64 buf i =
  for k = 0 to 7 do
    let shift = 8 * (7 - k) in
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical i shift) 0xFFL)))
  done

let put_len buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

let rec encode_into buf (v : Value.t) =
  match v with
  | Unit -> Buffer.add_char buf tag_unit
  | Bool b ->
      Buffer.add_char buf tag_bool;
      Buffer.add_char buf (if b then '\x01' else '\x00')
  | Int i ->
      Buffer.add_char buf tag_int;
      put_i64 buf (Int64.of_int i)
  | I64 i ->
      Buffer.add_char buf tag_i64;
      put_i64 buf i
  | Float f ->
      Buffer.add_char buf tag_float;
      put_i64 buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_char buf tag_str;
      put_len buf (String.length s);
      Buffer.add_string buf s
  | Blob s ->
      Buffer.add_char buf tag_blob;
      put_len buf (String.length s);
      Buffer.add_string buf s
  | List vs ->
      Buffer.add_char buf tag_list;
      put_len buf (List.length vs);
      List.iter (encode_into buf) vs
  | Record fs ->
      Buffer.add_char buf tag_record;
      put_len buf (List.length fs);
      List.iter
        (fun (n, v) ->
          put_len buf (String.length n);
          Buffer.add_string buf n;
          encode_into buf v)
        fs
  | Native n -> encode_into buf (n.record ())

let encode v =
  let buf = Buffer.create (Value.size_bytes v) in
  encode_into buf v;
  Buffer.contents buf

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let header_bytes = 4

let seal v =
  let body = encode v in
  let crc = crc32 body in
  let b = Buffer.create (header_bytes + String.length body) in
  let byte shift =
    Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical crc shift) 0xFFl))
  in
  Buffer.add_char b (byte 24);
  Buffer.add_char b (byte 16);
  Buffer.add_char b (byte 8);
  Buffer.add_char b (byte 0);
  Buffer.add_string b body;
  Buffer.contents b
