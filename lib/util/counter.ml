type t = { group : string; name : string Lazy.t; mutable value : int }

let value t = t.value
let incr t = t.value <- t.value + 1
let add t n = t.value <- t.value + n
let name t = Lazy.force t.name
let group t = t.group

module Registry = struct
  type r = { mutable order : t list }  (* newest first *)

  let create () = { order = [] }

  let make r ~group ~name =
    let c = { group; name; value = 0 } in
    r.order <- c :: r.order;
    c

  let all r = List.rev r.order
  let by_group r g = List.filter (fun c -> c.group = g) (all r)
  let group_total r g = List.fold_left (fun acc c -> acc + c.value) 0 (by_group r g)

  let group_max r g =
    List.fold_left
      (fun acc c ->
        match acc with
        | Some (_, v) when v >= c.value -> acc
        | _ -> Some (name c, c.value))
      None (by_group r g)

  let reset r = List.iter (fun c -> c.value <- 0) (all r)

  let pp ppf r =
    let pp_counter ppf c = Format.fprintf ppf "%s/%s=%d" c.group (name c) c.value in
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
      pp_counter ppf (all r)
end
