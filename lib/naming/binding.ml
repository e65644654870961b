module Value = Legion_wire.Value

type t = {
  loid : Loid.t;
  address : Address.t;
  expires : float option;
  epoch : int;
}

let make ?expires ?(epoch = 0) ~loid ~address () =
  { loid; address; expires; epoch }

let loid t = t.loid
let address t = t.address
let expires t = t.expires
let epoch t = t.epoch

let is_valid ~now t =
  match t.expires with None -> true | Some e -> now < e

let with_expiry t expires = { t with expires }

let equal a b =
  Loid.equal a.loid b.loid
  && Address.equal a.address b.address
  && Option.equal Float.equal a.expires b.expires
  && Int.equal a.epoch b.epoch

let pp ppf t =
  let pp_exp ppf = function
    | None -> Format.fprintf ppf "never"
    | Some e -> Format.fprintf ppf "%.3f" e
  in
  Format.fprintf ppf "%a->%a(exp:%a;e%d)" Loid.pp t.loid Address.pp t.address
    pp_exp t.expires t.epoch

let record t =
  Value.Record
    [
      ("loid", Loid.to_value t.loid);
      ("addr", Address.to_value t.address);
      ( "exp",
        match t.expires with
        | None -> Value.List []
        | Some e -> Value.List [ Value.Float e ] );
      ("epo", Value.Int t.epoch);
    ]

(* [Value.size_bytes (record t)]: a record is 5 bytes, a field 4 plus
   its name plus its value; "exp" is a List of 5 bytes plus an optional
   9-byte Float, "epo" a 9-byte Int. *)
let size_bytes t =
  let field name v = 4 + String.length name + v in
  5
  + field "loid" (Loid.size_bytes t.loid)
  + field "addr" (Address.size_bytes t.address)
  + field "exp" (match t.expires with None -> 5 | Some _ -> 14)
  + field "epo" 9

type Value.native += Binding of t

let to_value t =
  Value.Native
    { native = Binding t; size = size_bytes t; record = (fun () -> record t) }

let of_record v =
  let ( let* ) r f = Result.bind r f in
  let err e = Format.asprintf "binding: %a" Value.pp_error e in
  let* loid_v = Result.map_error err (Value.field v "loid") in
  let* loid = Loid.of_value loid_v in
  let* addr_v = Result.map_error err (Value.field v "addr") in
  let* address = Address.of_value addr_v in
  let* exp_v = Result.map_error err (Value.field v "exp") in
  let* expires =
    match exp_v with
    | Value.List [] -> Ok None
    | Value.List [ Value.Float e ] -> Ok (Some e)
    | _ -> Error "binding: bad expiry"
  in
  (* Bindings minted before epochs existed decode as epoch 0. *)
  let* epoch =
    match Value.field_opt v "epo" with
    | None -> Ok 0
    | Some (Value.Int e) -> Ok e
    | Some _ -> Error "binding: bad epoch"
  in
  Ok { loid; address; expires; epoch }

let of_value = function
  | Value.Native { native = Binding t; _ } -> Ok t
  | v -> of_record v

type request = Lookup of Loid.t | Refresh of t

let request_loid = function Lookup loid -> loid | Refresh t -> t.loid

let request_to_value = function
  | Lookup loid -> Loid.to_value loid
  | Refresh t -> to_value t

let request_of_value v =
  match Loid.of_value v with
  | Ok loid -> Some (Lookup loid)
  | Error _ -> (
      match of_value v with Ok t -> Some (Refresh t) | Error _ -> None)
