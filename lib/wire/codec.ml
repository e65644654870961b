(* Tags. Kept stable: OPRs written by one run of the simulator are read
   back by tests; a tag renumbering would be a format break. *)
let tag_unit = '\x00'
let tag_bool = '\x01'
let tag_int = '\x02'
let tag_i64 = '\x03'
let tag_float = '\x04'
let tag_str = '\x05'
let tag_blob = '\x06'
let tag_list = '\x07'
let tag_record = '\x08'

(* Scalars are written from native ints, so no Int64 is boxed per
   value. *)
let put_u32 buf n =
  Buffer.add_char buf (Char.unsafe_chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr (n land 0xFF))

let put_len = put_u32

(* The eight bytes of [Int64.of_int i]: [asr] sign-extends past bit 62. *)
let put_int buf i =
  for k = 7 downto 0 do
    Buffer.add_char buf (Char.unsafe_chr ((i asr (8 * k)) land 0xFF))
  done

let[@inline] put_i64 buf i =
  put_u32 buf (Int64.to_int (Int64.shift_right_logical i 32));
  put_u32 buf (Int64.to_int i land 0xFFFF_FFFF)

let rec encode_into buf (v : Value.t) =
  match v with
  | Unit -> Buffer.add_char buf tag_unit
  | Bool b ->
      Buffer.add_char buf tag_bool;
      Buffer.add_char buf (if b then '\x01' else '\x00')
  | Int i ->
      Buffer.add_char buf tag_int;
      put_int buf i
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

exception Malformed of string

(* Deep enough for any legitimate payload (OPRs nest a handful of
   levels), shallow enough that a crafted megabyte of nested list
   headers cannot blow the stack. *)
let max_depth = 256

type cursor = { s : string; mutable pos : int }

let need cur n what =
  if cur.pos + n > String.length cur.s then
    raise (Malformed (Printf.sprintf "truncated %s at offset %d" what cur.pos))

let read_byte cur what =
  need cur 1 what;
  let c = cur.s.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let read_i64 cur what =
  need cur 8 what;
  let r = ref 0L in
  for _ = 1 to 8 do
    r := Int64.logor (Int64.shift_left !r 8) (Int64.of_int (Char.code cur.s.[cur.pos]));
    cur.pos <- cur.pos + 1
  done;
  !r

let read_len cur what =
  need cur 4 what;
  let b i = Char.code cur.s.[cur.pos + i] in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  cur.pos <- cur.pos + 4;
  if n < 0 then raise (Malformed (Printf.sprintf "negative length in %s" what));
  n

let read_string cur what =
  let n = read_len cur what in
  need cur n what;
  let s = String.sub cur.s cur.pos n in
  cur.pos <- cur.pos + n;
  s

let rec decode_value ?(depth = 0) cur : Value.t =
  if depth > max_depth then raise (Malformed "nesting too deep");
  let tag = read_byte cur "tag" in
  if tag = tag_unit then Unit
  else if tag = tag_bool then
    match read_byte cur "bool" with
    | '\x00' -> Bool false
    | '\x01' -> Bool true
    | c -> raise (Malformed (Printf.sprintf "bad bool byte %d" (Char.code c)))
  else if tag = tag_int then Int (Int64.to_int (read_i64 cur "int"))
  else if tag = tag_i64 then I64 (read_i64 cur "i64")
  else if tag = tag_float then Float (Int64.float_of_bits (read_i64 cur "float"))
  else if tag = tag_str then Str (read_string cur "str")
  else if tag = tag_blob then Blob (read_string cur "blob")
  else if tag = tag_list then begin
    let n = read_len cur "list" in
    if n > String.length cur.s - cur.pos then
      raise (Malformed "list length exceeds buffer");
    List (List.init n (fun _ -> decode_value ~depth:(depth + 1) cur))
  end
  else if tag = tag_record then begin
    let n = read_len cur "record" in
    if n > String.length cur.s - cur.pos then
      raise (Malformed "record length exceeds buffer");
    Record
      (List.init n (fun _ ->
           let name = read_string cur "field name" in
           let v = decode_value ~depth:(depth + 1) cur in
           (name, v)))
  end
  else raise (Malformed (Printf.sprintf "unknown tag %d" (Char.code tag)))

let decode s =
  let cur = { s; pos = 0 } in
  match decode_value cur with
  | v ->
      if cur.pos <> String.length s then
        Error (Printf.sprintf "trailing bytes at offset %d" cur.pos)
      else Ok v
  | exception Malformed msg -> Error msg
