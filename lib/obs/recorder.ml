module Loid = Legion_naming.Loid
module Ustats = Legion_util.Stats

(* Slot [s] owns [times.(s)], four ints from [ints.(4s)], two LOIDs from
   [loids.(2s)], two strings from [strs.(2s)] and [boxed.(s)]. The head
   word [ints.(4s)] holds:

     bits 0-2   the slot's layout: [boxed_code] or one of the flat kinds
     bits 3-4   the layout's extra bits
     bits 5..   host + 1, then site + 1, [hs_bits] each (0 = absent)

   A flat kind keeps its fields in the arrays, so emitting it stores
   nothing the collector has to promote. Every other kind, and a flat
   one whose host or site does not fit [hs_bits], is boxed: [boxed.(s)]
   holds the kind, the extra bits say whether host and site are present,
   and [ints.(4s+1)] and [ints.(4s+2)] hold them. Words a slot's layout
   does not use keep stale values. *)
type t = {
  clock : unit -> float;
  capacity : int;
  mutable size : int;  (** slots allocated; doubles up to [capacity] *)
  mutable next : int;  (** the slot the next event goes to *)
  mutable times : Float.Array.t;
  mutable ints : int array;
  mutable loids : Loid.t array;
  mutable strs : string array;
  mutable boxed : Event.kind array;
  mutable total : int;
  mutable enabled : bool;
  counts : int array;  (** per {!Event.index}, over the lifetime *)
  lat : (string, Ustats.Histogram.h) Hashtbl.t;
}

(* Log-spaced 10µs .. 10s: spans the network's three latency tiers
   (5µs/0.5ms/40ms one-way) through multi-hop resolution chains. *)
let latency_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

let boxed_code = 0
let send_code = 1
let deliver_code = 2
let reply_code = 3
let call_code = 4
let cache_hit_code = 5
let cache_miss_code = 6
let admit_code = 7
let hs_bits = (Sys.int_size - 6) / 2
let hs_mask = (1 lsl hs_bits) - 1
let no_loid = Loid.make ~class_id:0L ~class_specific:0L ()
let no_kind = Event.Timeout { id = 0 }
let first_size = 64

let empty t =
  t.size <- 0;
  t.next <- 0;
  t.times <- Float.Array.create 0;
  t.ints <- [||];
  t.loids <- [||];
  t.strs <- [||];
  t.boxed <- [||]

let create ?(capacity = 65536) ~clock () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  {
    clock;
    capacity;
    size = 0;
    next = 0;
    times = Float.Array.create 0;
    ints = [||];
    loids = [||];
    strs = [||];
    boxed = [||];
    total = 0;
    enabled = true;
    counts = Array.make Event.kinds 0;
    lat = Hashtbl.create 16;
  }

let grow t =
  let n = Stdlib.min t.capacity (Stdlib.max first_size (2 * t.size)) in
  let extend a per fill =
    let b = Array.make (per * n) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let times = Float.Array.create n in
  Float.Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  t.ints <- extend t.ints 4 0;
  t.loids <- extend t.loids 2 no_loid;
  t.strs <- extend t.strs 2 "";
  t.boxed <- extend t.boxed 1 no_kind;
  t.size <- n

(* [v + 1] when it fits [hs_bits], 0 when absent, -1 when it does not fit. *)
let pack_opt = function
  | None -> 0
  | Some v -> if v >= 0 && v < hs_mask then v + 1 else -1

let unpack_opt v = if v = 0 then None else Some (v - 1)

let tier_bits = function
  | Event.Intra_host -> 0
  | Event.Intra_site -> 1
  | Event.Inter_site -> 2

let tier_of_bits = function
  | 0 -> Event.Intra_host
  | 1 -> Event.Intra_site
  | _ -> Event.Inter_site

let head code extra hs = code lor (extra lsl 3) lor hs

let store_boxed t i s host site kind =
  let bit = function None -> 0 | Some _ -> 1 in
  t.ints.(i) <- boxed_code lor (bit host lsl 3) lor (bit site lsl 4);
  t.ints.(i + 1) <- Option.value host ~default:0;
  t.ints.(i + 2) <- Option.value site ~default:0;
  t.boxed.(s) <- kind

let store t s host site kind =
  let i = 4 * s and p = 2 * s in
  let h = pack_opt host and st = pack_opt site in
  if h < 0 || st < 0 then store_boxed t i s host site kind
  else
    let hs = (h lor (st lsl hs_bits)) lsl 5 in
    match kind with
    | Event.Send { src; dst; bytes; tier } ->
        t.ints.(i) <- head send_code (tier_bits tier) hs;
        t.ints.(i + 1) <- src;
        t.ints.(i + 2) <- dst;
        t.ints.(i + 3) <- bytes
    | Event.Deliver { src; dst } ->
        t.ints.(i) <- head deliver_code 0 hs;
        t.ints.(i + 1) <- src;
        t.ints.(i + 2) <- dst
    | Event.Reply { id; ok } ->
        t.ints.(i) <- head reply_code (Bool.to_int ok) hs;
        t.ints.(i + 1) <- id
    | Event.Call { id; src; dst; meth } ->
        t.ints.(i) <- head call_code 0 hs;
        t.ints.(i + 1) <- id;
        t.loids.(p) <- src;
        t.loids.(p + 1) <- dst;
        t.strs.(p) <- meth
    | Event.Cache_hit { owner; target } ->
        t.ints.(i) <- head cache_hit_code 0 hs;
        t.loids.(p) <- owner;
        t.loids.(p + 1) <- target
    | Event.Cache_miss { owner; target } ->
        t.ints.(i) <- head cache_miss_code 0 hs;
        t.loids.(p) <- owner;
        t.loids.(p + 1) <- target
    | Event.Admit { loid; meth; queued; tenant } ->
        let tagged =
          match tenant with
          | None -> 0
          | Some tn ->
              t.strs.(p + 1) <- tn;
              2
        in
        t.ints.(i) <- head admit_code (Bool.to_int queued lor tagged) hs;
        t.loids.(p) <- loid;
        t.strs.(p) <- meth
    | _ -> store_boxed t i s host site kind

let emit t ?host ?site kind =
  if t.enabled then begin
    let k = Event.index kind in
    t.counts.(k) <- t.counts.(k) + 1;
    let s = t.next in
    if s = t.size then grow t;
    Float.Array.set t.times s (t.clock ());
    store t s host site kind;
    t.total <- t.total + 1;
    t.next <- (if s + 1 = t.capacity then 0 else s + 1)
  end

(* A fresh [Event.t] equal to the one stored in slot [s]. *)
let event_at t s =
  let i = 4 * s and p = 2 * s in
  let w = t.ints.(i) in
  let extra = (w lsr 3) land 3 in
  let time = Float.Array.get t.times s in
  let code = w land 7 in
  if code = boxed_code then
    {
      Event.time;
      host = (if extra land 1 = 0 then None else Some t.ints.(i + 1));
      site = (if extra land 2 = 0 then None else Some t.ints.(i + 2));
      kind = t.boxed.(s);
    }
  else
    let kind =
      if code = send_code then
        Event.Send
          {
            src = t.ints.(i + 1);
            dst = t.ints.(i + 2);
            bytes = t.ints.(i + 3);
            tier = tier_of_bits extra;
          }
      else if code = deliver_code then
        Event.Deliver { src = t.ints.(i + 1); dst = t.ints.(i + 2) }
      else if code = reply_code then
        Event.Reply { id = t.ints.(i + 1); ok = extra = 1 }
      else if code = call_code then
        Event.Call
          {
            id = t.ints.(i + 1);
            src = t.loids.(p);
            dst = t.loids.(p + 1);
            meth = t.strs.(p);
          }
      else if code = cache_hit_code then
        Event.Cache_hit { owner = t.loids.(p); target = t.loids.(p + 1) }
      else if code = cache_miss_code then
        Event.Cache_miss { owner = t.loids.(p); target = t.loids.(p + 1) }
      else
        Event.Admit
          {
            loid = t.loids.(p);
            meth = t.strs.(p);
            queued = extra land 1 = 1;
            tenant = (if extra land 2 = 0 then None else Some t.strs.(p + 1));
          }
    in
    {
      Event.time;
      host = unpack_opt ((w lsr 5) land hs_mask);
      site = unpack_opt ((w lsr (5 + hs_bits)) land hs_mask);
      kind;
    }

let total t = t.total
let retained t = Stdlib.min t.total t.capacity
let overwritten t = t.total - retained t

let fold_since t mark f init =
  let last = t.total in
  let first = Stdlib.max mark (last - retained t) in
  let rec go seq s acc =
    if seq >= last then acc
    else go (seq + 1) (if s + 1 = t.capacity then 0 else s + 1) (f acc (event_at t s))
  in
  go first (first mod t.capacity) init

let events_since t mark = List.rev (fold_since t mark (fun acc e -> e :: acc) [])
let events t = events_since t 0

let count t name =
  let rec find k =
    if k = Event.kinds then invalid_arg ("Recorder.count: unknown event " ^ name)
    else if String.equal (Event.name_of_index k) name then t.counts.(k)
    else find (k + 1)
  in
  find 0

let clear t =
  empty t;
  t.total <- 0;
  Array.fill t.counts 0 Event.kinds 0

let set_enabled t b = t.enabled <- b
let enabled t = t.enabled

let observe t ~component x =
  let h =
    match Hashtbl.find_opt t.lat component with
    | Some h -> h
    | None ->
        let h = Ustats.Histogram.create ~buckets:latency_buckets in
        Hashtbl.add t.lat component h;
        h
  in
  Ustats.Histogram.add h x

let latency t ~component = Hashtbl.find_opt t.lat component

let latencies t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.lat []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
