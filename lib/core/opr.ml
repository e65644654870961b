module Address = Legion_naming.Address
module Value = Legion_wire.Value
module Codec = Legion_wire.Codec

type t = {
  kind : string;
  units : string list;
  states : (string * Value.t) list;
  binding_agent : Address.t option;
  cache_capacity : int option;
}

let make ?(states = []) ?binding_agent ?cache_capacity ~kind ~units () =
  { kind; units; states; binding_agent; cache_capacity }

let to_value t =
  Value.Record
    [
      ("kind", Value.Str t.kind);
      ("units", Value.List (List.map (fun u -> Value.Str u) t.units));
      ("states", Value.Record t.states);
      ( "ba",
        match t.binding_agent with
        | None -> Value.List []
        | Some a -> Value.List [ Address.to_value a ] );
      ( "cap",
        match t.cache_capacity with
        | None -> Value.List []
        | Some c -> Value.List [ Value.Int c ] );
    ]

let ( let* ) r f = Result.bind r f

let of_value v =
  let err e = Format.asprintf "opr: %a" Value.pp_error e in
  let* kind = Result.map_error err (Result.bind (Value.field v "kind") Value.to_str) in
  let* units =
    Result.map_error err
      (Result.bind (Value.field v "units") (Value.to_list Value.to_str))
  in
  let* states =
    match Value.field v "states" with
    | Ok (Value.Record fields) -> Ok fields
    | Ok _ -> Error "opr: states not a record"
    | Error e -> Error (err e)
  in
  let* ba =
    match Value.field v "ba" with
    | Ok (Value.List []) -> Ok None
    | Ok (Value.List [ a ]) -> Result.map (fun a -> Some a) (Address.of_value a)
    | Ok _ -> Error "opr: bad binding agent field"
    | Error e -> Error (err e)
  in
  let* cap =
    match Value.field v "cap" with
    | Ok (Value.List []) -> Ok None
    | Ok (Value.List [ Value.Int c ]) -> Ok (Some c)
    | Ok _ -> Error "opr: bad cache capacity field"
    | Error e -> Error (err e)
  in
  Ok { kind; units; states; binding_agent = ba; cache_capacity = cap }

let to_blob t = Codec.encode (to_value t)

let of_blob blob =
  let* v = Codec.decode blob in
  of_value v

let size_bytes t = Value.size_bytes (to_value t)
