module Prng = Legion_util.Prng
module Value = Legion_wire.Value
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder

type host_id = int
type site_id = int

(* Registration handle: the tag says which list to search on removal. *)
type watcher = Host_watcher of int | Partition_watcher of int

type latency = {
  intra_host : float;
  intra_site : float;
  inter_site : float;
  jitter : float;
}

let default_latency =
  { intra_host = 5e-6; intra_site = 5e-4; inter_site = 4e-2; jitter = 0.1 }

type 'm codec = {
  size : 'm -> int;
  to_value : 'm -> Value.t;
  of_value : Value.t -> 'm;
}

let value_codec = { size = Value.size_bytes; to_value = Fun.id; of_value = Fun.id }

type 'm host = {
  site : site_id;
  h_name : string;
  mutable up : bool;
  mutable receiver : (src:host_id -> 'm -> unit) option;
}

(* In-flight message, pooled: each record owns [d_fire], the closure
   that delivers it, made once when the record is created, so posting a
   delivery to the engine costs no closure and no fresh record. [d_raw]
   is the sealed-and-mutated record form a payload selected for the
   corruption fault travels as, read back through [d_codec]; [None] —
   the fast path — carries the payload as it was sent. *)
type 'm delivery = {
  mutable d_src : host_id;
  mutable d_dst : host_id;
  mutable d_payload : 'm;
  mutable d_codec : 'm codec;
  mutable d_raw : string option;
  d_fire : unit -> unit;
}

type drop_causes = {
  by_rate : int;
  by_down_host : int;
  by_partition : int;
  by_no_receiver : int;
  by_corruption : int;
}

(* A transient per-link latency multiplier: messages between [sp_a] and
   [sp_b] (a normalised site pair) are slowed by [sp_factor] until
   virtual time [sp_until]; expired spikes are pruned lazily. *)
type spike = {
  sp_a : site_id;
  sp_b : site_id;
  sp_factor : float;
  sp_until : float;
}

type 'm t = {
  sim : Legion_sim.Engine.t;
  prng : Prng.t;
  latency : latency;
  mutable sites : string array;
  mutable host_tbl : 'm host array;
  mutable n_sites : int;
  mutable n_hosts : int;
  mutable free : 'm delivery array;  (* stack of idle in-flight records *)
  mutable free_len : int;
  mutable drop_rate : float;
  mutable duplicate_rate : float;
  mutable reorder_rate : float;
  mutable reorder_window : float;
  mutable corrupt_rate : float;
  mutable delay_spikes : spike list;
  mutable partitions : (site_id * site_id) list;
  mutable tap : (src:host_id -> dst:host_id -> Value.t -> unit) option;
  mutable watcher_seq : int;
  mutable host_watchers : (int * (host_id -> up:bool -> unit)) list;
  mutable partition_watchers :
    (int * (site_id -> site_id -> cut:bool -> unit)) list;
  obs : Recorder.t option;
  mutable sent : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable drop_causes : drop_causes;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable tier_host : int;
  mutable tier_site : int;
  mutable tier_wan : int;
}

(* An idle record keeps its last payload until it is reused: ['m] has
   no blank value, and the pool is only as deep as the peak in flight. *)
let rec deliver t d =
  let src = d.d_src and dst = d.d_dst and payload = d.d_payload in
  let raw = d.d_raw in
  d.d_raw <- None;
  if t.free_len = Array.length t.free then begin
    let bigger = Array.make (Stdlib.max 8 (2 * t.free_len)) d in
    Array.blit t.free 0 bigger 0 t.free_len;
    t.free <- bigger
  end;
  t.free.(t.free_len) <- d;
  t.free_len <- t.free_len + 1;
  let h = t.host_tbl.(dst) in
  if not h.up then drop_msg t ~src ~dst ~at:dst Event.Dst_down
  else
    match h.receiver with
    | None -> drop_msg t ~src ~dst ~at:dst Event.No_receiver
    | Some f -> (
        match raw with
        | None ->
            emit t ~host:dst (Event.Deliver { src; dst });
            f ~src payload
        | Some bytes -> (
            (* End-to-end integrity check on a payload that travelled as
               real (adversary-mutated) bytes: verify fail-closed —
               a checksum mismatch or undecodable body is a counted
               drop, never an exception or a garbled delivery. *)
            match Legion_wire.Envelope.unseal bytes with
            | Ok v ->
                emit t ~host:dst (Event.Deliver { src; dst });
                f ~src (d.d_codec.of_value v)
            | Error _ -> drop_msg t ~src ~dst ~at:dst Event.Corrupted))

and drop_msg t ~src ~dst ~at reason =
  t.dropped <- t.dropped + 1;
  let c = t.drop_causes in
  t.drop_causes <-
    (match reason with
    | Event.Random_loss -> { c with by_rate = c.by_rate + 1 }
    | Event.Src_down | Event.Dst_down ->
        { c with by_down_host = c.by_down_host + 1 }
    | Event.Partitioned -> { c with by_partition = c.by_partition + 1 }
    | Event.No_receiver -> { c with by_no_receiver = c.by_no_receiver + 1 }
    | Event.Corrupted -> { c with by_corruption = c.by_corruption + 1 });
  emit t ~host:at (Event.Drop { src; dst; reason })

and emit t ~host kind =
  match t.obs with
  | None -> ()
  | Some r -> Recorder.emit r ~host ~site:t.host_tbl.(host).site kind

let create ~sim ~prng ?(latency = default_latency) ?obs () =
  {
    sim;
    prng;
    latency;
    sites = Array.make 8 "";
    host_tbl = [||];
    n_sites = 0;
    n_hosts = 0;
    free = [||];
    free_len = 0;
    drop_rate = 0.0;
    duplicate_rate = 0.0;
    reorder_rate = 0.0;
    reorder_window = 0.0;
    corrupt_rate = 0.0;
    delay_spikes = [];
    partitions = [];
    tap = None;
    watcher_seq = 0;
    host_watchers = [];
    partition_watchers = [];
    obs;
    sent = 0;
    bytes = 0;
    dropped = 0;
    drop_causes =
      {
        by_rate = 0;
        by_down_host = 0;
        by_partition = 0;
        by_no_receiver = 0;
        by_corruption = 0;
      };
    duplicated = 0;
    reordered = 0;
    corrupted = 0;
    tier_host = 0;
    tier_site = 0;
    tier_wan = 0;
  }

let add_site t ~name =
  if t.n_sites = Array.length t.sites then begin
    let bigger = Array.make (2 * t.n_sites) "" in
    Array.blit t.sites 0 bigger 0 t.n_sites;
    t.sites <- bigger
  end;
  t.sites.(t.n_sites) <- name;
  t.n_sites <- t.n_sites + 1;
  t.n_sites - 1

let add_host t ~site ~name =
  if site < 0 || site >= t.n_sites then invalid_arg "Network.add_host: bad site";
  let h = { site; h_name = name; up = true; receiver = None } in
  if t.n_hosts = Array.length t.host_tbl then begin
    let cap = Stdlib.max 8 (2 * t.n_hosts) in
    let bigger = Array.make cap h in
    Array.blit t.host_tbl 0 bigger 0 t.n_hosts;
    t.host_tbl <- bigger
  end;
  t.host_tbl.(t.n_hosts) <- h;
  t.n_hosts <- t.n_hosts + 1;
  t.n_hosts - 1

let site_count t = t.n_sites
let host_count t = t.n_hosts
let hosts t = List.init t.n_hosts (fun i -> i)

let check_host t h =
  if h < 0 || h >= t.n_hosts then invalid_arg "Network: bad host id"

let hosts_of_site t s = List.filter (fun h -> t.host_tbl.(h).site = s) (hosts t)

let site_of t h =
  check_host t h;
  t.host_tbl.(h).site

let host_name t h =
  check_host t h;
  t.host_tbl.(h).h_name

let set_host_up t h up =
  check_host t h;
  let was = t.host_tbl.(h).up in
  t.host_tbl.(h).up <- up;
  if was <> up then List.iter (fun (_, f) -> f h ~up) t.host_watchers

let next_watcher_id t =
  t.watcher_seq <- t.watcher_seq + 1;
  t.watcher_seq

let add_host_watcher t f =
  let id = next_watcher_id t in
  t.host_watchers <- t.host_watchers @ [ (id, f) ];
  Host_watcher id

let remove_watcher t = function
  | Host_watcher id ->
      t.host_watchers <- List.filter (fun (i, _) -> i <> id) t.host_watchers
  | Partition_watcher id ->
      t.partition_watchers <-
        List.filter (fun (i, _) -> i <> id) t.partition_watchers

let watcher_count t =
  List.length t.host_watchers + List.length t.partition_watchers

let host_is_up t h =
  check_host t h;
  t.host_tbl.(h).up

let norm_pair a b = if a <= b then (a, b) else (b, a)

(* NaN compares false against everything, so the naive [r < 0. || r > 1.]
   check silently accepted it; a probability knob must reject it. *)
let check_rate name r =
  if Float.is_nan r || r < 0.0 || r > 1.0 then invalid_arg name

let set_drop_rate t r =
  check_rate "Network.set_drop_rate" r;
  t.drop_rate <- r


let set_duplicate_rate t r =
  check_rate "Network.set_duplicate_rate" r;
  t.duplicate_rate <- r


let set_corrupt_rate t r =
  check_rate "Network.set_corrupt_rate" r;
  t.corrupt_rate <- r


let set_reorder t ~rate ~window =
  check_rate "Network.set_reorder: rate" rate;
  if (not (Float.is_finite window)) || window < 0.0 then
    invalid_arg "Network.set_reorder: window";
  t.reorder_rate <- rate;
  t.reorder_window <- window


let set_delay_spike t ~a ~b ~factor ~until_ =
  if a < 0 || a >= t.n_sites || b < 0 || b >= t.n_sites then
    invalid_arg "Network.set_delay_spike: bad site id";
  if (not (Float.is_finite factor)) || factor < 1.0 then
    invalid_arg "Network.set_delay_spike: factor";
  if Float.is_nan until_ then invalid_arg "Network.set_delay_spike: until";
  let sp_a, sp_b = norm_pair a b in
  t.delay_spikes <-
    { sp_a; sp_b; sp_factor = factor; sp_until = until_ } :: t.delay_spikes

let clear_delay_spikes t = t.delay_spikes <- []

(* The spike factor for a site pair at [now], pruning expired entries
   while walking; overlapping spikes on one link compound. *)
let spike_factor t ~now a b =
  match t.delay_spikes with
  | [] -> 1.0
  | spikes ->
      let pa, pb = norm_pair a b in
      let live = List.filter (fun sp -> sp.sp_until > now) spikes in
      if List.compare_lengths live spikes <> 0 then t.delay_spikes <- live;
      List.fold_left
        (fun acc sp ->
          if sp.sp_a = pa && sp.sp_b = pb then acc *. sp.sp_factor else acc)
        1.0 live

let set_partitioned t a b cut =
  if a < 0 || a >= t.n_sites || b < 0 || b >= t.n_sites then
    invalid_arg "Network.set_partitioned: bad site id";
  let pair = norm_pair a b in
  let was = List.mem pair t.partitions in
  let without = List.filter (fun p -> p <> pair) t.partitions in
  let now = cut && a <> b in
  t.partitions <- (if now then pair :: without else without);
  if was <> now then
    List.iter
      (fun (_, f) -> f (fst pair) (snd pair) ~cut:now)
      t.partition_watchers

let add_partition_watcher t f =
  let id = next_watcher_id t in
  t.partition_watchers <- t.partition_watchers @ [ (id, f) ];
  Partition_watcher id

let is_partitioned t a b =
  match t.partitions with [] -> false | ps -> List.mem (norm_pair a b) ps

let set_receiver t h f =
  check_host t h;
  t.host_tbl.(h).receiver <- Some f

let latency_between t a b =
  check_host t a;
  check_host t b;
  if a = b then t.latency.intra_host
  else if t.host_tbl.(a).site = t.host_tbl.(b).site then t.latency.intra_site
  else t.latency.inter_site

let set_tap t tap = t.tap <- tap

(* Take an idle in-flight record, or make one with its closure. *)
let alloc_delivery ?raw t codec ~src ~dst payload =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    let d = t.free.(t.free_len) in
    d.d_src <- src;
    d.d_dst <- dst;
    d.d_payload <- payload;
    d.d_codec <- codec;
    d.d_raw <- raw;
    d
  end
  else
    let rec d =
      {
        d_src = src;
        d_dst = dst;
        d_payload = payload;
        d_codec = codec;
        d_raw = raw;
        d_fire = (fun () -> deliver t d);
      }
    in
    d

(* One transmission: a delay draw (base latency, jitter, any delay
   spike on the link, any adversarial reorder hold-back) and a posted
   delivery. Shared by the original send and injected duplicates,
   so each copy races under its own independent latency. *)
let transmit t codec ~src ~dst ?raw payload =
  let base = latency_between t src dst in
  let base =
    match t.delay_spikes with
    | [] -> base
    | _ ->
        base
        *. spike_factor t
             ~now:(Legion_sim.Engine.now t.sim)
             t.host_tbl.(src).site t.host_tbl.(dst).site
  in
  let delay = base *. (1.0 +. Prng.float t.prng t.latency.jitter) in
  let delay =
    if
      t.reorder_rate > 0.0 && t.reorder_window > 0.0
      && Prng.bernoulli t.prng ~p:t.reorder_rate
    then begin
      (* Hold this datagram back so later sends overtake it: an
         adversarial permutation of deliveries within the window. *)
      let extra = Prng.float t.prng t.reorder_window in
      t.reordered <- t.reordered + 1;
      emit t ~host:src (Event.Reorder { src; dst; extra });
      delay +. extra
    end
    else delay
  in
  let d = alloc_delivery ?raw t codec ~src ~dst payload in
  Legion_sim.Engine.post t.sim ~delay d.d_fire

(* Seed byte mutation: seal the record form in the checksummed envelope,
   then flip 1–3 bytes anywhere in the frame (header included). The
   receiver side of [deliver] verifies and fail-closed-drops it. *)
let corrupt_bytes t record ~src ~dst =
  let sealed = Legion_wire.Envelope.seal record in
  let n = String.length sealed in
  let b = Bytes.of_string sealed in
  let mutations = 1 + Prng.int t.prng 3 in
  for _ = 1 to mutations do
    let pos = Prng.int t.prng n in
    let flip = 1 + Prng.int t.prng 255 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip))
  done;
  t.corrupted <- t.corrupted + 1;
  emit t ~host:src (Event.Corrupt_inject { src; dst; mutations });
  Bytes.to_string b

(* The record form is built only for the tap and for a frame that is
   corrupted in flight; the size comes from [codec.size]. *)
let send t codec ~src ~dst payload =
  check_host t src;
  check_host t dst;
  (match t.tap with Some f -> f ~src ~dst (codec.to_value payload) | None -> ());
  let size = codec.size payload in
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  let tier =
    if src = dst then begin
      t.tier_host <- t.tier_host + 1;
      Event.Intra_host
    end
    else if t.host_tbl.(src).site = t.host_tbl.(dst).site then begin
      t.tier_site <- t.tier_site + 1;
      Event.Intra_site
    end
    else begin
      t.tier_wan <- t.tier_wan + 1;
      Event.Inter_site
    end
  in
  emit t ~host:src (Event.Send { src; dst; bytes = size; tier });
  if not t.host_tbl.(src).up then drop_msg t ~src ~dst ~at:src Event.Src_down
  else if is_partitioned t t.host_tbl.(src).site t.host_tbl.(dst).site then
    drop_msg t ~src ~dst ~at:src Event.Partitioned
  else if t.drop_rate > 0.0 && Prng.bernoulli t.prng ~p:t.drop_rate then
    drop_msg t ~src ~dst ~at:src Event.Random_loss
  else begin
    let raw =
      if t.corrupt_rate > 0.0 && Prng.bernoulli t.prng ~p:t.corrupt_rate then
        Some (corrupt_bytes t (codec.to_value payload) ~src ~dst)
      else None
    in
    transmit t codec ~src ~dst ?raw payload;
    if t.duplicate_rate > 0.0 && Prng.bernoulli t.prng ~p:t.duplicate_rate
    then begin
      (* The adversary re-injects a faithful copy (corruption applies to
         the original transmission only); it draws its own latency, so
         it may arrive before or after — or be reordered against — the
         original. *)
      t.duplicated <- t.duplicated + 1;
      emit t ~host:src (Event.Duplicate { src; dst });
      transmit t codec ~src ~dst payload
    end
  end

let messages_sent t = t.sent
let bytes_sent t = t.bytes
let messages_by_tier t = (t.tier_host, t.tier_site, t.tier_wan)
let messages_dropped t = t.dropped
let drop_causes t = t.drop_causes
let messages_duplicated t = t.duplicated
let messages_reordered t = t.reordered
let messages_corrupted t = t.corrupted
