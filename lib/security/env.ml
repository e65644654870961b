module Value = Legion_wire.Value

type t = { responsible : Legion_naming.Loid.t; security : Legion_naming.Loid.t; calling : Legion_naming.Loid.t }

let make ~responsible ~security ~calling = { responsible; security; calling }
let of_self loid = { responsible = loid; security = loid; calling = loid }
let delegate t ~calling = { t with calling }

let equal a b =
  Legion_naming.Loid.equal a.responsible b.responsible
  && Legion_naming.Loid.equal a.security b.security
  && Legion_naming.Loid.equal a.calling b.calling

let pp ppf t =
  Format.fprintf ppf "{ra=%a;sa=%a;ca=%a}" Legion_naming.Loid.pp t.responsible Legion_naming.Loid.pp
    t.security Legion_naming.Loid.pp t.calling

let to_value t =
  Value.Record
    [
      ("ra", Legion_naming.Loid.to_value t.responsible);
      ("sa", Legion_naming.Loid.to_value t.security);
      ("ca", Legion_naming.Loid.to_value t.calling);
    ]

(* A record header, then three two-letter fields (4 + 2 + a LOID). *)
let size_bytes t =
  5 + 18
  + Legion_naming.Loid.size_bytes t.responsible
  + Legion_naming.Loid.size_bytes t.security
  + Legion_naming.Loid.size_bytes t.calling

let of_value v =
  let ( let* ) r f = Result.bind r f in
  let err e = Format.asprintf "env: %a" Value.pp_error e in
  let* ra = Result.bind (Result.map_error err (Value.field v "ra")) Legion_naming.Loid.of_value in
  let* sa = Result.bind (Result.map_error err (Value.field v "sa")) Legion_naming.Loid.of_value in
  let* ca = Result.bind (Result.map_error err (Value.field v "ca")) Legion_naming.Loid.of_value in
  Ok { responsible = ra; security = sa; calling = ca }
