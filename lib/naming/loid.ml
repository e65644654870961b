module Value = Legion_wire.Value

type t = { class_id : int64; class_specific : int64; public_key : string }

let make ?(public_key = "") ~class_id ~class_specific () =
  { class_id; class_specific; public_key }

let class_id t = t.class_id
let class_specific t = t.class_specific
let public_key t = t.public_key
let is_class t = Int64.equal t.class_specific 0L
let wildcard = { class_id = 0L; class_specific = 0L; public_key = "" }

let is_wildcard t =
  Int64.equal t.class_id 0L && Int64.equal t.class_specific 0L

let responsible_class t =
  { class_id = t.class_id; class_specific = 0L; public_key = "" }

let equal a b =
  Int64.equal a.class_id b.class_id
  && Int64.equal a.class_specific b.class_specific
  && String.equal a.public_key b.public_key

let compare a b =
  let c = Int64.compare a.class_id b.class_id in
  if c <> 0 then c
  else
    let c = Int64.compare a.class_specific b.class_specific in
    if c <> 0 then c else String.compare a.public_key b.public_key

(* Integer arithmetic on the two fields: splitmix64's finaliser, cut to
   a native int, spreads every field bit into the low bits a
   [Stdlib.Hashtbl] masks. Only a LOID with a key hashes a string. *)
let hash t =
  let h = (Int64.to_int t.class_id * 0x1E3779B97F4A7C15) + Int64.to_int t.class_specific in
  let h =
    if String.length t.public_key = 0 then h else h lxor Hashtbl.hash t.public_key
  in
  let h = (h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 27)) * 0x14D049BB133111EB in
  (h lxor (h lsr 31)) land max_int

let to_string t =
  if String.length t.public_key = 0 then
    Printf.sprintf "L%Lx.%Lx" t.class_id t.class_specific
  else Printf.sprintf "L%Lx.%Lx+key" t.class_id t.class_specific

let pp ppf t = Format.pp_print_string ppf (to_string t)

let record t =
  Value.Record
    [
      ("cid", Value.I64 t.class_id);
      ("spec", Value.I64 t.class_specific);
      ("key", Value.Blob t.public_key);
    ]

(* A record header, then "cid" and "spec" (4 + name + a 9-byte I64) and
   "key" (4 + name + a Blob's 5 + its bytes). *)
let size_bytes t = 5 + 16 + 17 + 12 + String.length t.public_key

type Value.native += Loid of t

let to_value t =
  Value.Native
    { native = Loid t; size = size_bytes t; record = (fun () -> record t) }

let of_record v =
  let ( let* ) r f = Result.bind r f in
  let err e = Format.asprintf "loid: %a" Value.pp_error e in
  let* cid = Result.map_error err (Result.bind (Value.field v "cid") Value.to_i64) in
  let* spec = Result.map_error err (Result.bind (Value.field v "spec") Value.to_i64) in
  let* key = Result.map_error err (Result.bind (Value.field v "key") Value.to_blob) in
  Ok { class_id = cid; class_specific = spec; public_key = key }

let of_value = function
  | Value.Native { native = Loid t; _ } -> Ok t
  | v -> of_record v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Lru = Legion_util.Lru.Make (Hashed)

module Table = struct
  module H = Hashtbl.Make (Hashed)

  type 'a t = 'a H.t

  let create () = H.create 64
  let find t k = H.find_opt t k
  let mem t k = H.mem t k
  let set t k v = H.replace t k v
  let remove t k = H.remove t k
  let length t = H.length t
  let iter f t = H.iter f t
  let fold f t init = H.fold f t init
  let to_list t = H.fold (fun k v acc -> (k, v) :: acc) t []
end
