(* The recency order is the LRU's: a hit or an insert makes an entry the
   most recently used, and a full cache evicts the least recently used
   one. An expired entry is dropped when a lookup meets it. *)

module Lru = Loid.Lru

type t = {
  capacity : int option;
  entries : Binding.t Lru.t;
  mutable lookups : int;
  mutable hits : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 0 -> invalid_arg "Cache.create: negative capacity"
  | _ -> ());
  {
    capacity;
    entries = Lru.create ?capacity ~key:Binding.loid ();
    lookups = 0;
    hits = 0;
  }

(* A hit on an entry that no longer serves is dropped: touching it
   first leaves the order of the other entries as it was. *)
let find t ~now loid =
  t.lookups <- t.lookups + 1;
  match Lru.find t.entries loid with
  | Some b as hit when Binding.is_valid ~now b ->
      t.hits <- t.hits + 1;
      hit
  | Some _ ->
      Lru.remove t.entries loid;
      None
  | None -> None

let add t ~now binding =
  if Binding.is_valid ~now binding then Lru.add t.entries binding

let invalidate t loid = Lru.remove t.entries loid

let invalidate_exact t binding =
  let loid = Binding.loid binding in
  match Lru.peek t.entries loid with
  | Some b when Binding.equal b binding -> Lru.remove t.entries loid
  | Some _ | None -> ()

let find_refresh t ~now ~stale =
  let loid = Binding.loid stale in
  t.lookups <- t.lookups + 1;
  match Lru.find t.entries loid with
  | Some b as hit when Binding.is_valid ~now b && not (Binding.equal b stale)
    ->
      t.hits <- t.hits + 1;
      hit
  | Some _ ->
      Lru.remove t.entries loid;
      None
  | None -> None

let mem t ~now loid =
  match Lru.peek t.entries loid with
  | Some b when Binding.is_valid ~now b -> true
  | Some _ ->
      Lru.remove t.entries loid;
      false
  | None -> false

let length t = Lru.length t.entries
let capacity t = t.capacity

let clear t =
  Lru.clear t.entries;
  t.lookups <- 0;
  t.hits <- 0

let lookups t = t.lookups
let hits t = t.hits

let hit_rate t =
  if t.lookups = 0 then 0.0 else float_of_int t.hits /. float_of_int t.lookups

let evictions t = Lru.evictions t.entries
