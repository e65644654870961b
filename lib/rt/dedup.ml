(* A bounded LRU map, the store behind the runtime's exactly-once
   dedup cache. Plain OCaml: a hashtable to the nodes of an intrusive
   doubly-linked recency list. [find] touches; inserting past capacity
   evicts the least recently used entry. *)

type ('k, 'v) node = {
  n_key : 'k;
  mutable n_val : 'v;
  mutable n_prev : ('k, 'v) node option;
  mutable n_next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Dedup.create: capacity";
  {
    capacity;
    tbl = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
  }

let unlink t n =
  (match n.n_prev with
  | Some p -> p.n_next <- n.n_next
  | None -> t.head <- n.n_next);
  (match n.n_next with
  | Some s -> s.n_prev <- n.n_prev
  | None -> t.tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front t n =
  n.n_next <- t.head;
  (match t.head with Some h -> h.n_prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.n_val

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl k

let set t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.n_val <- v;
      unlink t n;
      push_front t n
  | None ->
      if Hashtbl.length t.tbl >= t.capacity then begin
        match t.tail with
        | None -> ()
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.tbl lru.n_key
      end;
      let n = { n_key = k; n_val = v; n_prev = None; n_next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n
