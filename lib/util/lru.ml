(* A hashtable to the nodes of an intrusive, doubly linked recency
   list. [Nil] is an immediate, so relinking a node stores pointers and
   boxes nothing, unlike [option] links. *)

module type S = sig
  type key
  type 'v t

  val create : ?capacity:int -> key:('v -> key) -> unit -> 'v t
  val find : 'v t -> key -> 'v option
  val peek : 'v t -> key -> 'v option
  val add : 'v t -> 'v -> unit
  val remove : 'v t -> key -> unit
  val fold : ('v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  val clear : 'v t -> unit
  val length : 'v t -> int
  val evictions : 'v t -> int
end

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t

  type 'v node =
    | Nil
    | Node of { mutable value : 'v; mutable prev : 'v node; mutable next : 'v node }

  type 'v t = {
    capacity : int option;
    key : 'v -> K.t;
    tbl : 'v node H.t;  (* every binding is a [Node] *)
    mutable head : 'v node;  (* most recently used *)
    mutable tail : 'v node;  (* least recently used *)
    mutable evictions : int;
  }

  let create ?capacity ~key () =
    let size =
      match capacity with
      | Some c when c < 0 -> invalid_arg "Lru.create: negative capacity"
      | Some c -> min c 64
      | None -> 64
    in
    { capacity; key; tbl = H.create size; head = Nil; tail = Nil; evictions = 0 }

  let unlink t = function
    | Nil -> ()
    | Node r ->
        (match r.prev with Nil -> t.head <- r.next | Node p -> p.next <- r.next);
        (match r.next with Nil -> t.tail <- r.prev | Node s -> s.prev <- r.prev);
        r.prev <- Nil;
        r.next <- Nil

  let push_front t = function
    | Nil -> ()
    | Node r as n ->
        r.next <- t.head;
        (match t.head with Nil -> t.tail <- n | Node h -> h.prev <- n);
        t.head <- n

  let touch t n =
    unlink t n;
    push_front t n

  let find t k =
    match H.find t.tbl k with
    | Node r as n ->
        touch t n;
        Some r.value
    | Nil | (exception Not_found) -> None

  let peek t k =
    match H.find t.tbl k with
    | Node r -> Some r.value
    | Nil | (exception Not_found) -> None

  let remove t k =
    match H.find t.tbl k with
    | n ->
        unlink t n;
        H.remove t.tbl k
    | exception Not_found -> ()

  let evict_lru t =
    match t.tail with
    | Nil -> ()
    | Node r as n ->
        unlink t n;
        H.remove t.tbl (t.key r.value);
        t.evictions <- t.evictions + 1

  let add t v =
    match t.capacity with
    | Some 0 -> ()
    | capacity -> (
        let k = t.key v in
        match H.find t.tbl k with
        | Node r as n ->
            r.value <- v;
            touch t n
        | Nil | (exception Not_found) ->
            (match capacity with
            | Some c when H.length t.tbl >= c -> evict_lru t
            | _ -> ());
            let n = Node { value = v; prev = Nil; next = Nil } in
            H.add t.tbl k n;
            push_front t n)

  let fold f t init =
    let rec go acc = function
      | Nil -> acc
      | Node r -> go (f r.value acc) r.prev
    in
    go init t.tail

  let clear t =
    H.reset t.tbl;
    t.head <- Nil;
    t.tail <- Nil;
    t.evictions <- 0

  let length t = H.length t.tbl
  let evictions t = t.evictions
end
