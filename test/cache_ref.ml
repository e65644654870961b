(* The comm-layer binding cache as it was before it was built on
   [Legion_util.Lru]: every entry carries the tick of its last use, and
   a full cache folds over all entries to evict the smallest. The cache
   tests drive it beside [Legion_naming.Cache] as an oracle. The logic
   is unchanged. *)

module Loid = Legion_naming.Loid
module Binding = Legion_naming.Binding

type entry = { binding : Binding.t; mutable last_used : int }

type t = {
  capacity : int option;
  entries : entry Loid.Table.t;
  mutable tick : int;
  mutable lookups : int;
  mutable hits : int;
  mutable evictions : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 0 -> invalid_arg "Cache.create: negative capacity"
  | _ -> ());
  {
    capacity;
    entries = Loid.Table.create ();
    tick = 0;
    lookups = 0;
    hits = 0;
    evictions = 0;
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let find t ~now loid =
  t.lookups <- t.lookups + 1;
  match Loid.Table.find t.entries loid with
  | None -> None
  | Some e ->
      if Binding.is_valid ~now e.binding then begin
        t.hits <- t.hits + 1;
        touch t e;
        Some e.binding
      end
      else begin
        Loid.Table.remove t.entries loid;
        None
      end

let evict_lru t =
  let victim =
    Loid.Table.fold
      (fun loid e acc ->
        match acc with
        | Some (_, best) when best <= e.last_used -> acc
        | _ -> Some (loid, e.last_used))
      t.entries None
  in
  match victim with
  | None -> ()
  | Some (loid, _) ->
      Loid.Table.remove t.entries loid;
      t.evictions <- t.evictions + 1

let add t ~now binding =
  if Binding.is_valid ~now binding then begin
    match t.capacity with
    | Some 0 -> ()
    | _ ->
        let loid = Binding.loid binding in
        let already = Loid.Table.mem t.entries loid in
        (match t.capacity with
        | Some c when (not already) && Loid.Table.length t.entries >= c ->
            evict_lru t
        | _ -> ());
        let e = { binding; last_used = 0 } in
        touch t e;
        Loid.Table.set t.entries loid e
  end

let invalidate t loid = Loid.Table.remove t.entries loid

let invalidate_exact t binding =
  let loid = Binding.loid binding in
  match Loid.Table.find t.entries loid with
  | Some e when Binding.equal e.binding binding -> Loid.Table.remove t.entries loid
  | Some _ | None -> ()

let find_refresh t ~now ~stale =
  let loid = Binding.loid stale in
  t.lookups <- t.lookups + 1;
  match Loid.Table.find t.entries loid with
  | None -> None
  | Some e ->
      if
        (not (Binding.is_valid ~now e.binding))
        || Binding.equal e.binding stale
      then begin
        Loid.Table.remove t.entries loid;
        None
      end
      else begin
        t.hits <- t.hits + 1;
        touch t e;
        Some e.binding
      end

let mem t ~now loid =
  match Loid.Table.find t.entries loid with
  | Some e ->
      if Binding.is_valid ~now e.binding then true
      else begin
        Loid.Table.remove t.entries loid;
        false
      end
  | None -> false

let length t = Loid.Table.length t.entries
let capacity t = t.capacity

let clear t =
  List.iter
    (fun (loid, _) -> Loid.Table.remove t.entries loid)
    (Loid.Table.to_list t.entries);
  t.tick <- 0;
  t.lookups <- 0;
  t.hits <- 0;
  t.evictions <- 0

let lookups t = t.lookups
let hits t = t.hits

let hit_rate t =
  if t.lookups = 0 then 0.0 else float_of_int t.hits /. float_of_int t.lookups

let evictions t = t.evictions
