module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding

let ( let* ) r f = Result.bind r f

let verr e = Format.asprintf "%a" Value.pp_error e

let field v name = Result.map_error verr (Value.field v name)
let str_field v name = Result.map_error verr (Result.bind (Value.field v name) Value.to_str)
let int_field v name = Result.map_error verr (Result.bind (Value.field v name) Value.to_int)
let i64_field v name = Result.map_error verr (Result.bind (Value.field v name) Value.to_i64)

let bool_field ?default v name =
  match (Value.field v name, default) with
  | Ok b, _ -> Result.map_error verr (Value.to_bool b)
  | Error _, Some d -> Ok d
  | Error e, None -> Error (verr e)

let loid_field v name =
  let* fv = field v name in
  Loid.of_value fv

let str_list_field ?default v name =
  match (Value.field v name, default) with
  | Ok fv, _ -> Result.map_error verr (Value.to_list Value.to_str fv)
  | Error _, Some d -> Ok d
  | Error e, None -> Error (verr e)

let loid_list = function
  | Value.List vs ->
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest ->
            let* l = Loid.of_value x in
            loop (l :: acc) rest
      in
      loop [] vs
  | _ -> Error "expected a list of loids"

let loid_list_field ?default v name =
  match (Value.field v name, default) with
  | Ok (Value.List _ as fv), _ -> loid_list fv
  | Ok _, _ -> Error (Printf.sprintf "field %s: not a list" name)
  | Error _, Some d -> Ok d
  | Error e, None -> Error (verr e)

let opt_field v name decode =
  match Value.field v name with
  | Error _ -> Ok None
  | Ok (Value.List []) -> Ok None
  | Ok (Value.List [ x ]) -> Result.map (fun d -> Some d) (decode x)
  | Ok _ -> Error (Printf.sprintf "field %s: not an option" name)

let opt_loid_field v name = opt_field v name Loid.of_value
let opt_str_field v name =
  opt_field v name (fun x -> Result.map_error verr (Value.to_str x))

let opt_int_field v name =
  opt_field v name (fun x -> Result.map_error verr (Value.to_int x))

let opt_address_field v name = opt_field v name Address.of_value

let vopt f = function None -> Value.List [] | Some x -> Value.List [ f x ]
let vloids loids = Value.List (List.map Loid.to_value loids)
let vstrs strs = Value.List (List.map (fun s -> Value.Str s) strs)

let loid_arg v = Loid.of_value v
let binding_arg v = Binding.of_value v
