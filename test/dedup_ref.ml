(* The runtime's exactly-once table as it was before it kept its
   entries in flat arrays: an LRU of one record per (caller host, call
   id), whose reply a continuation writes into that record. Kept as the
   oracle for [Legion_rt.Dedup], on the old LRU ([Lru_ref]). *)

module Loid = Legion_naming.Loid

type entry = {
  key : int * int;  (* (caller host, call id) *)
  loid : Loid.t;
  meth : string;
  mutable reply : Legion_rt.Dedup.reply option;
}

module Tbl = Lru_ref.Make (struct
  type t = int * int

  let equal (h, i) (h', i') = h = h' && i = i'
  let hash = Hashtbl.hash
end)

type t = entry Tbl.t

let create ~capacity =
  if capacity <= 0 then invalid_arg "Dedup_ref.create: capacity";
  Tbl.create ~capacity ~key:(fun e -> e.key) ()

let state e : Legion_rt.Dedup.lookup =
  match e.reply with
  | None -> Running { loid = e.loid; meth = e.meth }
  | Some reply -> Replied { loid = e.loid; meth = e.meth; reply }

let find t ~host ~id : Legion_rt.Dedup.lookup =
  match Tbl.find t (host, id) with Some e -> state e | None -> Absent

(* The entry is the handle its execution's reply is recorded through:
   once evicted it is an orphan, and a reply written into it reaches no
   lookup. *)
let add t ~host ~id ~loid ~meth =
  let e = { key = (host, id); loid; meth; reply = None } in
  Tbl.add t e;
  e

let record e reply = e.reply <- Some reply
let remove t ~host ~id = Tbl.remove t (host, id)
let length = Tbl.length
let entries t = Tbl.fold (fun e acc -> (e.key, state e) :: acc) t []
