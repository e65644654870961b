module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Binding = Legion_naming.Binding

type t =
  | Tunit
  | Tbool
  | Tint
  | Tfloat
  | Tstr
  | Tblob
  | Tloid
  | Tbinding
  | Tany
  | Tlist of t
  | Topt of t
  | Trecord of (string * t) list

let rec check ty (v : Value.t) =
  match (ty, v) with
  | Tany, _ -> true
  | Tunit, Value.Unit -> true
  | Tbool, Value.Bool _ -> true
  | Tint, (Value.Int _ | Value.I64 _) -> true
  | Tfloat, Value.Float _ -> true
  | Tstr, Value.Str _ -> true
  | Tblob, Value.Blob _ -> true
  | Tloid, v -> Result.is_ok (Loid.of_value v)
  | Tbinding, v -> Result.is_ok (Binding.of_value v)
  | _, Value.Native n -> check ty (n.record ())
  | Tlist ty, Value.List vs -> List.for_all (check ty) vs
  | Topt _, Value.List [] -> true
  | Topt ty, Value.List [ v ] -> check ty v
  | Trecord fields, Value.Record vs ->
      List.length fields = List.length vs
      && List.for_all
           (fun (name, fty) ->
             match List.assoc_opt name vs with
             | Some fv -> check fty fv
             | None -> false)
           fields
  | ( ( Tunit | Tbool | Tint | Tfloat | Tstr | Tblob | Tlist _ | Topt _
      | Trecord _ ),
      _ ) ->
      false

let rec equal a b =
  match (a, b) with
  | Tunit, Tunit | Tbool, Tbool | Tint, Tint | Tfloat, Tfloat | Tstr, Tstr
  | Tblob, Tblob | Tloid, Tloid | Tbinding, Tbinding | Tany, Tany ->
      true
  | Tlist x, Tlist y | Topt x, Topt y -> equal x y
  | Trecord x, Trecord y ->
      List.equal (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && equal t1 t2) x y
  | ( ( Tunit | Tbool | Tint | Tfloat | Tstr | Tblob | Tloid | Tbinding | Tany
      | Tlist _ | Topt _ | Trecord _ ),
      _ ) ->
      false

let rec pp ppf = function
  | Tunit -> Format.fprintf ppf "unit"
  | Tbool -> Format.fprintf ppf "bool"
  | Tint -> Format.fprintf ppf "int"
  | Tfloat -> Format.fprintf ppf "float"
  | Tstr -> Format.fprintf ppf "str"
  | Tblob -> Format.fprintf ppf "blob"
  | Tloid -> Format.fprintf ppf "loid"
  | Tbinding -> Format.fprintf ppf "binding"
  | Tany -> Format.fprintf ppf "any"
  | Tlist t -> Format.fprintf ppf "list<%a>" pp t
  | Topt t -> Format.fprintf ppf "opt<%a>" pp t
  | Trecord fields ->
      let pp_field ppf (n, t) = Format.fprintf ppf "%s: %a" n pp t in
      Format.fprintf ppf "record{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_field)
        fields

let to_string t = Format.asprintf "%a" pp t

let rec to_value = function
  | Tunit -> Value.Str "unit"
  | Tbool -> Value.Str "bool"
  | Tint -> Value.Str "int"
  | Tfloat -> Value.Str "float"
  | Tstr -> Value.Str "str"
  | Tblob -> Value.Str "blob"
  | Tloid -> Value.Str "loid"
  | Tbinding -> Value.Str "binding"
  | Tany -> Value.Str "any"
  | Tlist t -> Value.Record [ ("list", to_value t) ]
  | Topt t -> Value.Record [ ("opt", to_value t) ]
  | Trecord fields ->
      Value.Record
        [ ("rec", Value.Record (List.map (fun (n, t) -> (n, to_value t)) fields)) ]

let rec of_value (v : Value.t) =
  match v with
  | Value.Str "unit" -> Ok Tunit
  | Value.Str "bool" -> Ok Tbool
  | Value.Str "int" -> Ok Tint
  | Value.Str "float" -> Ok Tfloat
  | Value.Str "str" -> Ok Tstr
  | Value.Str "blob" -> Ok Tblob
  | Value.Str "loid" -> Ok Tloid
  | Value.Str "binding" -> Ok Tbinding
  | Value.Str "any" -> Ok Tany
  | Value.Record [ ("list", inner) ] -> Result.map (fun t -> Tlist t) (of_value inner)
  | Value.Record [ ("opt", inner) ] -> Result.map (fun t -> Topt t) (of_value inner)
  | Value.Record [ ("rec", Value.Record fields) ] ->
      let rec loop acc = function
        | [] -> Ok (Trecord (List.rev acc))
        | (n, fv) :: rest -> (
            match of_value fv with
            | Ok t -> loop ((n, t) :: acc) rest
            | Error _ as e -> e)
      in
      loop [] fields
  | _ -> Error "ty: unrecognised type encoding"
