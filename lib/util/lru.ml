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
  type key = K.t

  (* Position [p] owns [hashes.(p)], its entry's key hash, and
     [slots.(p)], the entry or [None] once dead. Positions [lo, hi)
     hold the entries in touch order, oldest first. A touch appends the
     entry at [hi] and kills the old position; a kill drops its slot, so
     a dead position keeps nothing alive, and leaves its hash stale.
     Eviction pops from [lo], skipping dead positions, and when [hi]
     reaches the end of the arrays the live entries are compacted to the
     front, into arrays twice as long while more than half are live, up
     to [max_len].

     [index] is an open-addressing table of live positions by key, with
     linear probing and [-1] for a free slot; a probe compares hashes
     before it reads an entry's key. It is at least a third longer than
     the arrays, so it is never more than three quarters full, and it is
     rebuilt whenever the entries move. *)
  type 'v t = {
    capacity : int;  (* [max_int] when unbounded *)
    max_len : int;
    key : 'v -> K.t;
    mutable hashes : int array;
    mutable slots : 'v option array;
    mutable lo : int;
    mutable hi : int;
    mutable live : int;
    mutable index : int array;
    mutable shift : int;  (* a hash's top [Sys.int_size - shift] bits index *)
    mutable evictions : int;
  }

  let first_len = 12

  (* Fibonacci hashing: the product's top bits depend on every bit. *)
  let home t h = (h * 0x1E3779B97F4A7C15) lsr t.shift

  let holds t p k h =
    t.hashes.(p) = h
    && match t.slots.(p) with Some v -> K.equal (t.key v) k | None -> false

  let rec probe t k h i =
    let p = t.index.(i) in
    if p < 0 then -1
    else if holds t p k h then i
    else probe t k h ((i + 1) land (Array.length t.index - 1))

  let slot t k h = probe t k h (home t h)

  (* The index slot of live position [p]: only ints are compared. *)
  let rec slot_of t p i =
    if t.index.(i) = p then i
    else slot_of t p ((i + 1) land (Array.length t.index - 1))

  let rec insert t p i =
    if t.index.(i) < 0 then t.index.(i) <- p
    else insert t p ((i + 1) land (Array.length t.index - 1))

  (* Backward-shift deletion: walk the run after the free slot [hole] and
     move back each entry whose home is not cyclically in (hole, j], so
     no probe sequence ever crosses a free slot. *)
  let rec close_hole t hole j =
    let j = (j + 1) land (Array.length t.index - 1) in
    let p = t.index.(j) in
    if p >= 0 then begin
      let h = home t t.hashes.(p) in
      if (if hole <= j then hole < h && h <= j else hole < h || h <= j) then
        close_hole t hole j
      else begin
        t.index.(hole) <- p;
        t.index.(j) <- -1;
        close_hole t j j
      end
    end

  let unindex t i =
    t.index.(i) <- -1;
    close_hole t i i

  let kill t p =
    t.slots.(p) <- None;
    t.live <- t.live - 1

  let rec index_bits n b = if 1 lsl b >= n then b else index_bits n (b + 1)

  (* Move the live entries of [lo, hi) to the front of arrays of length
     [len], in order, and index them afresh. *)
  let rebuild t len =
    let fresh = len <> Array.length t.slots in
    let hashes = if fresh then Array.make len 0 else t.hashes in
    let slots = if fresh then Array.make len None else t.slots in
    let n = ref 0 in
    for p = t.lo to t.hi - 1 do
      match t.slots.(p) with
      | Some _ as s ->
          let q = !n in
          hashes.(q) <- t.hashes.(p);
          slots.(q) <- s;
          n := q + 1
      | None -> ()
    done;
    if not fresh then Array.fill slots !n (t.hi - !n) None;
    t.hashes <- hashes;
    t.slots <- slots;
    t.lo <- 0;
    t.hi <- !n;
    let bits = index_bits (((4 * len) + 2) / 3) 1 in
    if 1 lsl bits <> Array.length t.index then t.index <- Array.make (1 lsl bits) (-1)
    else Array.fill t.index 0 (Array.length t.index) (-1);
    t.shift <- Sys.int_size - bits;
    for q = 0 to !n - 1 do
      insert t q (home t hashes.(q))
    done

  (* Make room for one append. A capacity bounds the live entries to half
     of [max_len], so a compaction always frees a position. *)
  let reserve t =
    let len = Array.length t.slots in
    if t.hi = len then
      rebuild t
        (if 2 * t.live > len && len < t.max_len then min t.max_len (2 * len) else len)

  let empty t =
    t.hashes <- [||];
    t.slots <- [||];
    t.lo <- 0;
    t.hi <- 0;
    t.live <- 0;
    rebuild t (min t.max_len first_len)

  let create ?capacity ~key () =
    let capacity =
      match capacity with
      | Some c when c < 0 -> invalid_arg "Lru.create: negative capacity"
      | Some c -> c
      | None -> max_int
    in
    let max_len =
      if capacity > Sys.max_array_length / 2 then Sys.max_array_length else 2 * capacity
    in
    let t =
      {
        capacity;
        max_len;
        key;
        hashes = [||];
        slots = [||];
        lo = 0;
        hi = 0;
        live = 0;
        index = [||];
        shift = 0;
        evictions = 0;
      }
    in
    empty t;
    t

  let append t h s =
    let p = t.hi in
    t.hashes.(p) <- h;
    t.slots.(p) <- s;
    t.hi <- p + 1;
    t.live <- t.live + 1;
    p

  let peek t k =
    let i = slot t k (K.hash k) in
    if i < 0 then None else t.slots.(t.index.(i))

  let rec find t k =
    let h = K.hash k in
    let i = slot t k h in
    if i < 0 then None
    else
      let p = t.index.(i) in
      if p = t.hi - 1 then t.slots.(p)
      else if t.hi = Array.length t.slots then begin
        (* Compaction moves every position: look the key up again. *)
        reserve t;
        find t k
      end
      else begin
        let s = t.slots.(p) in
        kill t p;
        t.index.(i) <- append t h s;
        s
      end

  let rec evict_oldest t =
    let p = t.lo in
    t.lo <- p + 1;
    match t.slots.(p) with
    | None -> evict_oldest t
    | Some _ ->
        unindex t (slot_of t p (home t t.hashes.(p)));
        kill t p;
        t.evictions <- t.evictions + 1

  let add t v =
    if t.capacity > 0 then begin
      reserve t;
      let k = t.key v in
      let h = K.hash k in
      let i = slot t k h in
      if i >= 0 then begin
        kill t t.index.(i);
        t.index.(i) <- append t h (Some v)
      end
      else begin
        if t.live >= t.capacity then evict_oldest t;
        insert t (append t h (Some v)) (home t h)
      end
    end

  let remove t k =
    let i = slot t k (K.hash k) in
    if i >= 0 then begin
      kill t t.index.(i);
      unindex t i
    end

  let fold f t init =
    let rec go p acc =
      if p >= t.hi then acc
      else go (p + 1) (match t.slots.(p) with Some v -> f v acc | None -> acc)
    in
    go t.lo init

  let clear t =
    empty t;
    t.evictions <- 0

  let length t = t.live
  let evictions t = t.evictions
end
