type native = ..

type t =
  | Unit
  | Bool of bool
  | Int of int
  | I64 of int64
  | Float of float
  | Str of string
  | Blob of string
  | List of t list
  | Record of (string * t) list
  | Native of { native : native; size : int; record : unit -> t }

type error = [ `Wrong_type of string | `Missing_field of string ]

let pp_error ppf = function
  | `Wrong_type s -> Format.fprintf ppf "wrong type: expected %s" s
  | `Missing_field s -> Format.fprintf ppf "missing field: %s" s

(* A [Native] is its record to every reader below but [size_bytes]. *)
let rec equal a b =
  match (a, b) with
  | Native n, _ -> equal (n.record ()) b
  | _, Native n -> equal a (n.record ())
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | I64 x, I64 y -> Int64.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y | Blob x, Blob y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Record x, Record y ->
      List.equal (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && equal v1 v2) x y
  | ( (Unit | Bool _ | Int _ | I64 _ | Float _ | Str _ | Blob _ | List _ | Record _),
      _ ) ->
      false

let constructor_rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | I64 _ -> 3
  | Float _ -> 4
  | Str _ -> 5
  | Blob _ -> 6
  | List _ -> 7
  | Record _ | Native _ -> 8

let rec compare a b =
  match (a, b) with
  | Native n, _ -> compare (n.record ()) b
  | _, Native n -> compare a (n.record ())
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | I64 x, I64 y -> Int64.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y | Blob x, Blob y -> String.compare x y
  | List x, List y -> List.compare compare x y
  | Record x, Record y ->
      List.compare
        (fun (n1, v1) (n2, v2) ->
          let c = String.compare n1 n2 in
          if c <> 0 then c else compare v1 v2)
        x y
  | ( (Unit | Bool _ | Int _ | I64 _ | Float _ | Str _ | Blob _ | List _ | Record _),
      _ ) ->
      Stdlib.compare (constructor_rank a) (constructor_rank b)

let rec pp ppf = function
  | Unit -> Format.fprintf ppf "()"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int i -> Format.fprintf ppf "%d" i
  | I64 i -> Format.fprintf ppf "%LdL" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Blob s -> Format.fprintf ppf "<blob:%d>" (String.length s)
  | List vs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        vs
  | Record fs ->
      let pp_field ppf (n, v) = Format.fprintf ppf "%s=%a" n pp v in
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_field)
        fs
  | Native n -> pp ppf (n.record ())

let to_string v = Format.asprintf "%a" pp v

let of_int i = Int i
let of_string s = Str s
let of_list f xs = List (List.map f xs)
let of_option f = function None -> List [] | Some x -> List [ f x ]

let record fields =
  let names = List.map fst fields in
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Value.record: duplicate field names";
  Record fields

let to_bool = function Bool b -> Ok b | _ -> Error (`Wrong_type "bool")
let to_int = function Int i -> Ok i | _ -> Error (`Wrong_type "int")
let to_i64 = function I64 i -> Ok i | _ -> Error (`Wrong_type "i64")
let to_float = function Float f -> Ok f | _ -> Error (`Wrong_type "float")
let to_str = function Str s -> Ok s | _ -> Error (`Wrong_type "str")
let to_blob = function Blob s -> Ok s | _ -> Error (`Wrong_type "blob")

let to_list f = function
  | List vs ->
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
            match f v with Ok x -> loop (x :: acc) rest | Error _ as e -> e)
      in
      loop [] vs
  | _ -> Error (`Wrong_type "list")

let to_option f = function
  | List [] -> Ok None
  | List [ v ] -> ( match f v with Ok x -> Ok (Some x) | Error _ as e -> e)
  | _ -> Error (`Wrong_type "option")

(* [List.assoc_opt] without its polymorphic [compare]: the first field
   of that name wins, as there. *)
let rec assoc name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then Some v else assoc name rest

let rec field v name =
  match v with
  | Record fs -> (
      match assoc name fs with
      | Some x -> Ok x
      | None -> Error (`Missing_field name))
  | Native n -> field (n.record ()) name
  | _ -> Error (`Wrong_type "record")

let rec field_opt v name =
  match v with
  | Record fs -> assoc name fs
  | Native n -> field_opt (n.record ()) name
  | _ -> None

let rec depth = function
  | Unit | Bool _ | Int _ | I64 _ | Float _ | Str _ | Blob _ -> 1
  | List vs -> 1 + List.fold_left (fun acc v -> Stdlib.max acc (depth v)) 0 vs
  | Record fs ->
      1 + List.fold_left (fun acc (_, v) -> Stdlib.max acc (depth v)) 0 fs
  | Native n -> depth (n.record ())

(* Mirrors the layout produced by Codec.encode: 1 tag byte, then fixed
   8-byte scalars or a 4-byte length prefix for variable parts. *)
let rec size_bytes = function
  | Unit -> 1
  | Bool _ -> 2
  | Int _ | I64 _ | Float _ -> 9
  | Str s | Blob s -> 5 + String.length s
  | List vs -> 5 + List.fold_left (fun acc v -> acc + size_bytes v) 0 vs
  | Record fs ->
      5
      + List.fold_left
          (fun acc (n, v) -> acc + 4 + String.length n + size_bytes v)
          0 fs
  | Native n -> n.size
