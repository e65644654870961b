module Loid = Legion_naming.Loid

type reply = (Legion_wire.Value.t, Err.t) result

type lookup =
  | Absent
  | Running of { loid : Loid.t; meth : string }
  | Replied of { loid : Loid.t; meth : string; reply : reply }

(* Position [p] owns [hosts.(p)], [ids.(p)], [serials.(p)], [loids.(p)],
   [meths.(p)] and [replies.(p)]. Positions [lo, hi) hold the entries
   in touch order, oldest first. A touch appends a copy of the entry at
   [hi] and kills the old position; a kill sets its serial to 0 and
   drops its reply, so a dead position keeps no reply alive, and leaves
   the other fields stale. Eviction pops from [lo], skipping dead
   positions, and when [hi] reaches the end of the arrays the live
   entries are compacted to the front, into arrays twice as long while
   more than half are live, up to [max_len].

   [index] is an open-addressing table of live positions by key, with
   linear probing and [-1] for a free slot. It is at least twice as long
   as the arrays, and it is rebuilt whenever the entries move. *)
type t = {
  capacity : int;
  max_len : int;
  mutable hosts : int array;
  mutable ids : int array;
  mutable serials : int array;  (* 0 = dead *)
  mutable loids : Loid.t array;
  mutable meths : string array;
  mutable replies : reply array;  (* [running] until recorded *)
  mutable lo : int;
  mutable hi : int;
  mutable live : int;
  mutable next_serial : int;
  mutable index : int array;
  mutable shift : int;  (* a hash's top [Sys.int_size - shift] bits index *)
}

let running : reply = Error (Err.Internal "dedup: running")
let no_loid = Loid.make ~class_id:0L ~class_specific:0L ()
let first_len = 64

(* Fibonacci hashing: the product's top bits spread consecutive ids. *)
let home t host id = ((id + (host lsl 40)) * 0x1E3779B97F4A7C15) lsr t.shift

let rec probe t host id i =
  let p = t.index.(i) in
  if p < 0 then -1
  else if t.ids.(p) = id && t.hosts.(p) = host then i
  else probe t host id ((i + 1) land (Array.length t.index - 1))

let slot t ~host ~id = probe t host id (home t host id)

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
    let h = home t t.hosts.(p) t.ids.(p) in
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
  t.serials.(p) <- 0;
  t.replies.(p) <- running;
  t.live <- t.live - 1

let rec index_bits n b = if 1 lsl b >= n then b else index_bits n (b + 1)

(* Move the live entries of [lo, hi) to the front of arrays of length
   [len], in order, and index them afresh. *)
let rebuild t len =
  let fresh = len <> Array.length t.ids in
  let hosts = if fresh then Array.make len 0 else t.hosts in
  let ids = if fresh then Array.make len 0 else t.ids in
  let serials = if fresh then Array.make len 0 else t.serials in
  let loids = if fresh then Array.make len no_loid else t.loids in
  let meths = if fresh then Array.make len "" else t.meths in
  let replies = if fresh then Array.make len running else t.replies in
  let n = ref 0 in
  for p = t.lo to t.hi - 1 do
    if t.serials.(p) <> 0 then begin
      let q = !n in
      hosts.(q) <- t.hosts.(p);
      ids.(q) <- t.ids.(p);
      serials.(q) <- t.serials.(p);
      loids.(q) <- t.loids.(p);
      meths.(q) <- t.meths.(p);
      replies.(q) <- t.replies.(p);
      n := q + 1
    end
  done;
  if not fresh then Array.fill replies !n (t.hi - !n) running;
  t.hosts <- hosts;
  t.ids <- ids;
  t.serials <- serials;
  t.loids <- loids;
  t.meths <- meths;
  t.replies <- replies;
  t.lo <- 0;
  t.hi <- !n;
  let bits = index_bits (2 * len) 1 in
  if 1 lsl bits <> Array.length t.index then t.index <- Array.make (1 lsl bits) (-1)
  else Array.fill t.index 0 (Array.length t.index) (-1);
  t.shift <- Sys.int_size - bits;
  for q = 0 to !n - 1 do
    insert t q (home t hosts.(q) ids.(q))
  done

(* Make room for one append. *)
let reserve t =
  let len = Array.length t.ids in
  if t.hi = len then
    rebuild t
      (if 2 * t.live > len && len < t.max_len then min t.max_len (2 * len) else len)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Dedup.create: capacity must be positive";
  let max_len =
    if capacity > Sys.max_array_length / 2 then Sys.max_array_length else 2 * capacity
  in
  let t =
    {
      capacity;
      max_len;
      hosts = [||];
      ids = [||];
      serials = [||];
      loids = [||];
      meths = [||];
      replies = [||];
      lo = 0;
      hi = 0;
      live = 0;
      next_serial = 1;
      index = [||];
      shift = 0;
    }
  in
  rebuild t (min max_len first_len);
  t

let append t ~host ~id ~serial ~loid ~meth reply =
  let p = t.hi in
  t.hosts.(p) <- host;
  t.ids.(p) <- id;
  t.serials.(p) <- serial;
  t.loids.(p) <- loid;
  t.meths.(p) <- meth;
  t.replies.(p) <- reply;
  t.hi <- p + 1;
  t.live <- t.live + 1;
  p

let rec evict_oldest t =
  let p = t.lo in
  t.lo <- p + 1;
  if t.serials.(p) = 0 then evict_oldest t
  else begin
    unindex t (slot t ~host:t.hosts.(p) ~id:t.ids.(p));
    kill t p
  end

let lookup_at t p =
  let reply = t.replies.(p) in
  if reply == running then Running { loid = t.loids.(p); meth = t.meths.(p) }
  else Replied { loid = t.loids.(p); meth = t.meths.(p); reply }

let find t ~host ~id =
  reserve t;
  let i = slot t ~host ~id in
  if i < 0 then Absent
  else begin
    let p = t.index.(i) in
    if p <> t.hi - 1 then begin
      let q =
        append t ~host ~id ~serial:t.serials.(p) ~loid:t.loids.(p) ~meth:t.meths.(p)
          t.replies.(p)
      in
      kill t p;
      t.index.(i) <- q
    end;
    lookup_at t t.index.(i)
  end

let add t ~host ~id ~loid ~meth =
  reserve t;
  let serial = t.next_serial in
  t.next_serial <- serial + 1;
  let i = slot t ~host ~id in
  if i >= 0 then begin
    kill t t.index.(i);
    t.index.(i) <- append t ~host ~id ~serial ~loid ~meth running
  end
  else begin
    if t.live >= t.capacity then evict_oldest t;
    insert t (append t ~host ~id ~serial ~loid ~meth running) (home t host id)
  end;
  serial

let record t ~host ~id ~serial reply =
  let i = slot t ~host ~id in
  if i >= 0 then
    let p = t.index.(i) in
    if t.serials.(p) = serial then t.replies.(p) <- reply

let remove t ~host ~id =
  let i = slot t ~host ~id in
  if i >= 0 then begin
    kill t t.index.(i);
    unindex t i
  end

let length t = t.live

let entries t =
  let acc = ref [] in
  for p = t.lo to t.hi - 1 do
    if t.serials.(p) <> 0 then acc := ((t.hosts.(p), t.ids.(p)), lookup_at t p) :: !acc
  done;
  !acc
