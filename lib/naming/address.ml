module Value = Legion_wire.Value
module Prng = Legion_util.Prng

type element =
  | Ip of { host : int32; port : int }
  | Ip_node of { host : int32; port : int; node : int }
  | Sim of { host : int; slot : int }
  | Raw of { addr_type : int32; payload : string }

type semantic =
  | All
  | Any_random
  | First_k of int
  | K_random of int
  | Ordered_failover
  | Custom of string

type t = { elements : element list; semantic : semantic }

let make ?(semantic = Ordered_failover) elements =
  if elements = [] then invalid_arg "Address.make: empty element list";
  { elements; semantic }

let singleton e = make [ e ]
let elements t = t.elements
let semantic t = t.semantic

let addr_type = function
  | Ip _ -> 1l
  | Ip_node _ -> 2l
  | Sim _ -> 3l
  | Raw { addr_type; _ } -> addr_type

let sim_host = function
  | Sim { host; _ } -> Some host
  | Ip _ | Ip_node _ | Raw _ -> None

let targets t prng =
  match t.semantic with
  | All -> t.elements
  | Any_random -> [ Prng.choose prng (Array.of_list t.elements) ]
  | First_k k ->
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | e :: rest -> e :: take (n - 1) rest
      in
      take (Stdlib.max 0 k) t.elements
  | K_random k ->
      let arr = Array.of_list t.elements in
      let k = Stdlib.max 0 (Stdlib.min k (Array.length arr)) in
      Prng.sample_without_replacement prng k arr
  | Ordered_failover | Custom _ -> t.elements

let equal_element a b =
  match (a, b) with
  | Ip x, Ip y -> Int32.equal x.host y.host && x.port = y.port
  | Ip_node x, Ip_node y ->
      Int32.equal x.host y.host && x.port = y.port && x.node = y.node
  | Sim x, Sim y -> x.host = y.host && x.slot = y.slot
  | Raw x, Raw y ->
      Int32.equal x.addr_type y.addr_type && String.equal x.payload y.payload
  | (Ip _ | Ip_node _ | Sim _ | Raw _), _ -> false

let compare_element a b = Stdlib.compare a b

let equal_semantic a b =
  match (a, b) with
  | All, All | Any_random, Any_random | Ordered_failover, Ordered_failover ->
      true
  | First_k x, First_k y | K_random x, K_random y -> x = y
  | Custom x, Custom y -> String.equal x y
  | (All | Any_random | First_k _ | K_random _ | Ordered_failover | Custom _), _
    ->
      false

let equal a b =
  equal_semantic a.semantic b.semantic
  && List.equal equal_element a.elements b.elements

let compare a b =
  let c = Stdlib.compare a.semantic b.semantic in
  if c <> 0 then c else List.compare compare_element a.elements b.elements

let pp_element ppf = function
  | Ip { host; port } -> Format.fprintf ppf "ip:%lx:%d" host port
  | Ip_node { host; port; node } -> Format.fprintf ppf "ip:%lx:%d@%d" host port node
  | Sim { host; slot } -> Format.fprintf ppf "sim:%d:%d" host slot
  | Raw { addr_type; payload } ->
      Format.fprintf ppf "raw:%ld:%d bytes" addr_type (String.length payload)

let pp_semantic ppf = function
  | All -> Format.fprintf ppf "all"
  | Any_random -> Format.fprintf ppf "any"
  | First_k k -> Format.fprintf ppf "first-%d" k
  | K_random k -> Format.fprintf ppf "rand-%d" k
  | Ordered_failover -> Format.fprintf ppf "failover"
  | Custom s -> Format.fprintf ppf "custom:%s" s

let pp ppf t =
  Format.fprintf ppf "<%a|%a>" pp_semantic t.semantic
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       pp_element)
    t.elements

let element_to_value = function
  | Ip { host; port } ->
      Value.Record [ ("t", Value.Int 1); ("h", Value.I64 (Int64.of_int32 host)); ("p", Value.Int port) ]
  | Ip_node { host; port; node } ->
      Value.Record
        [
          ("t", Value.Int 2);
          ("h", Value.I64 (Int64.of_int32 host));
          ("p", Value.Int port);
          ("n", Value.Int node);
        ]
  | Sim { host; slot } ->
      Value.Record [ ("t", Value.Int 3); ("h", Value.Int host); ("s", Value.Int slot) ]
  | Raw { addr_type; payload } ->
      Value.Record
        [
          ("t", Value.Int 0);
          ("a", Value.I64 (Int64.of_int32 addr_type));
          ("b", Value.Blob payload);
        ]

let ( let* ) r f = Result.bind r f

let err_of e = Format.asprintf "address: %a" Value.pp_error e

let intf v name = Result.map_error err_of (Result.bind (Value.field v name) Value.to_int)
let i64f v name = Result.map_error err_of (Result.bind (Value.field v name) Value.to_i64)
let blobf v name = Result.map_error err_of (Result.bind (Value.field v name) Value.to_blob)

let element_of_value v =
  let* tag = intf v "t" in
  match tag with
  | 1 ->
      let* h = i64f v "h" in
      let* p = intf v "p" in
      Ok (Ip { host = Int64.to_int32 h; port = p })
  | 2 ->
      let* h = i64f v "h" in
      let* p = intf v "p" in
      let* n = intf v "n" in
      Ok (Ip_node { host = Int64.to_int32 h; port = p; node = n })
  | 3 ->
      let* h = intf v "h" in
      let* s = intf v "s" in
      Ok (Sim { host = h; slot = s })
  | 0 ->
      let* a = i64f v "a" in
      let* b = blobf v "b" in
      Ok (Raw { addr_type = Int64.to_int32 a; payload = b })
  | n -> Error (Printf.sprintf "address: unknown element tag %d" n)

let semantic_kind = function
  | All -> "all"
  | Any_random -> "any"
  | First_k _ -> "first"
  | K_random _ -> "krand"
  | Ordered_failover -> "failover"
  | Custom _ -> "custom"

let semantic_to_value sem =
  let k = ("k", Value.Str (semantic_kind sem)) in
  match sem with
  | All | Any_random | Ordered_failover -> Value.Record [ k ]
  | First_k n | K_random n -> Value.Record [ k; ("n", Value.Int n) ]
  | Custom s -> Value.Record [ k; ("n2", Value.Str s) ]

let semantic_of_value v =
  let* kind =
    Result.map_error err_of (Result.bind (Value.field v "k") Value.to_str)
  in
  match kind with
  | "all" -> Ok All
  | "any" -> Ok Any_random
  | "first" ->
      let* n = intf v "n" in
      Ok (First_k n)
  | "krand" ->
      let* n = intf v "n" in
      Ok (K_random n)
  | "failover" -> Ok Ordered_failover
  | "custom" ->
      let* s =
        Result.map_error err_of (Result.bind (Value.field v "n2") Value.to_str)
      in
      Ok (Custom s)
  | s -> Error (Printf.sprintf "address: unknown semantic %S" s)

let record t =
  Value.Record
    [
      ("sem", semantic_to_value t.semantic);
      ("els", Value.List (List.map element_to_value t.elements));
    ]

(* [Value.size_bytes (record t)] by formula, field by field as the
   encoders above lay them out: a record is 5 bytes, a field 4 plus its
   name plus its value, an Int or an I64 9, a Str, a Blob or a List 5
   plus its body. *)
let field name v = 4 + String.length name + v
let int_size = 9

let element_size = function
  | Ip _ -> 5 + field "t" int_size + field "h" int_size + field "p" int_size
  | Ip_node _ ->
      5 + field "t" int_size + field "h" int_size + field "p" int_size
      + field "n" int_size
  | Sim _ -> 5 + field "t" int_size + field "h" int_size + field "s" int_size
  | Raw { payload; _ } ->
      5 + field "t" int_size + field "a" int_size
      + field "b" (5 + String.length payload)

let semantic_size sem =
  5
  + field "k" (5 + String.length (semantic_kind sem))
  +
  match sem with
  | All | Any_random | Ordered_failover -> 0
  | First_k _ | K_random _ -> field "n" int_size
  | Custom s -> field "n2" (5 + String.length s)

let size_bytes t =
  5
  + field "sem" (semantic_size t.semantic)
  + field "els"
      (List.fold_left (fun n e -> n + element_size e) 5 t.elements)

type Value.native += Address of t

let to_value t =
  Value.Native
    { native = Address t; size = size_bytes t; record = (fun () -> record t) }

let of_record v =
  let* sem_v = Result.map_error err_of (Value.field v "sem") in
  let* sem = semantic_of_value sem_v in
  let* els_v = Result.map_error err_of (Value.field v "els") in
  let* els =
    match els_v with
    | Value.List vs ->
        let rec loop acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest ->
              let* e = element_of_value x in
              loop (e :: acc) rest
        in
        loop [] vs
    | _ -> Error "address: els is not a list"
  in
  if els = [] then Error "address: empty element list"
  else Ok { elements = els; semantic = sem }

let of_value = function
  | Value.Native { native = Address t; _ } -> Ok t
  | v -> of_record v
