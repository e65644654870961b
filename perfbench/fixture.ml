(* What every workload shares: the benchmark's application unit, boot
   and population helpers, a snapshot of the simulator's own counters,
   and the virtual-time digest. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Cache = Legion_naming.Cache
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Recorder = Legion_obs.Recorder
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module Persistent = Legion_store.Persistent
module Disk = Legion_store.Disk
module System = Legion.System
module Api = Legion.Api

(* --- The application unit: a counter whose Increment holds the call
   for [service] virtual seconds before applying it. ---

   Increment takes (delta, op); a positive op id marks a benchmark
   operation, whose handler start time is kept (traced run only) so the
   wait from "due" to "handler started" can be measured. *)

let unit_name = "perfbench.counter"
let idl = "interface PerfCounter { Increment(d: int, op: int): int; Get(): int; }"
let service = ref 0.0
let handler_starts : (int, float) Hashtbl.t = Hashtbl.create 4096

let factory (_ : Runtime.ctx) : Impl.part =
  let n = ref 0 in
  let reply k v = Probe.span "rt.reply" (fun () -> k v) in
  let increment (ctx : Runtime.ctx) args _env k =
    Probe.span "app.handler" (fun () ->
        match args with
        | [ Value.Int d; Value.Int op ] ->
            if !Probe.on && op > 0 then
              Hashtbl.replace handler_starts op (Runtime.now ctx.rt);
            if !service > 0.0 then
              Engine.post (Runtime.sim ctx.rt) ~delay:!service (fun () ->
                  Probe.span "app.handler" (fun () ->
                      n := !n + d;
                      reply k (Ok (Value.Int !n))))
            else begin
              n := !n + d;
              reply k (Ok (Value.Int !n))
            end
        | _ -> Impl.bad_args k "Increment expects (int, int)")
  in
  let get _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int !n))
    | _ -> Impl.bad_args k "Get takes no arguments"
  in
  Impl.part
    ~methods:[ ("Increment", increment); ("Get", get) ]
    ~save:(fun () -> Value.Int !n)
    ~restore:(function
      | Value.Int i ->
          n := i;
          Ok ()
      | _ -> Error "counter state must be an int")
    unit_name

let boot ~seed ?rt_config ?object_cache_capacity ?trace_capacity sites =
  Impl.register unit_name factory;
  Legion_txn.Participant.register ();
  Legion_txn.Coordinator.register ();
  Hashtbl.reset handler_starts;
  Probe.span "legion.boot" (fun () ->
      System.boot ~seed ?rt_config ?object_cache_capacity ?trace_capacity ~sites ())

let derive sys ctx ?(units = [ unit_name ]) ?(idl = Some idl) name =
  Probe.span "legion.derive" (fun () ->
      Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name ~units
        ?idl ())

(* Create [n] objects round-robin over the site Magistrates, timing each
   [Api.create_object] on the host clock. Returns the LOIDs, the wall
   microseconds of each create, and the messages each create sent. *)
let populate sys ctx ~cls ~eager n =
  let mags = Array.of_list (System.magistrates sys) in
  let net = System.net sys in
  let us = Array.make n 0.0 and msgs = Array.make n 0 in
  let loids =
    Array.init n (fun i ->
        let m0 = Network.messages_sent net in
        let t0 = Probe.now_ns () in
        let l =
          Probe.span "legion.create" (fun () ->
              Api.create_object_exn sys ctx ~cls ~eager
                ~magistrate:mags.(i mod Array.length mags) ())
        in
        us.(i) <- Probe.ns_between t0 (Probe.now_ns ()) *. 1e-3;
        msgs.(i) <- Network.messages_sent net - m0;
        l)
  in
  (loids, us, msgs)

(* A client process on a site's first host; [cache_capacity] bounds its
   comm-layer cache ([None]: unbounded). *)
let client sys ~site ~cache_capacity =
  let s = System.site sys site in
  let loid = System.fresh_instance_loid sys ~of_class:Well_known.legion_object in
  let proc =
    Runtime.spawn (System.rt sys) ~host:(List.hd s.System.net_hosts) ~loid
      ~kind:Well_known.kind_client ?cache_capacity
      ~binding_agent:s.System.agent_address
      ~handler:(fun _ _ k -> k (Error (Err.Refused "benchmark client")))
      ()
  in
  { Runtime.rt = System.rt sys; self = proc }

(* --- Counter snapshots: deltas over a phase are the per-op counts. --- *)

type counts = {
  events : int;
  msgs : int;
  m_host : int;
  m_site : int;
  m_wan : int;
  bytes : int;
  drops : int;
  dups : int;
  sheds : int;
  dedup : int;
  rq_agent : int;
  rq_class : int;
  rq_mag : int;
  rq_host : int;
  disk_writes : int;
  minor : float;
  major : float;
}

let zero_counts =
  {
    events = 0;
    msgs = 0;
    m_host = 0;
    m_site = 0;
    m_wan = 0;
    bytes = 0;
    drops = 0;
    dups = 0;
    sheds = 0;
    dedup = 0;
    rq_agent = 0;
    rq_class = 0;
    rq_mag = 0;
    rq_host = 0;
    disk_writes = 0;
    minor = 0.0;
    major = 0.0;
  }

let disks sys =
  List.concat_map (fun s -> Persistent.disks s.System.storage) (System.sites sys)
  |> List.sort_uniq (fun a b -> compare (Disk.name a) (Disk.name b))

let counts sys =
  let net = System.net sys and rt = System.rt sys in
  let reg = System.registry sys in
  let h, s, w = Network.messages_by_tier net in
  let group = Counter.Registry.group_total reg in
  {
    events = Engine.events_fired (System.sim sys);
    msgs = Network.messages_sent net;
    m_host = h;
    m_site = s;
    m_wan = w;
    bytes = Network.bytes_sent net;
    drops = Network.messages_dropped net;
    dups = Network.messages_duplicated net;
    sheds = Runtime.total_sheds rt;
    dedup = Runtime.dedup_hits rt;
    rq_agent = group Well_known.kind_binding_agent;
    rq_class = group Well_known.kind_class;
    rq_mag = group Well_known.kind_magistrate;
    rq_host = group Well_known.kind_host;
    disk_writes = List.fold_left (fun acc d -> acc + Disk.writes d) 0 (disks sys);
    minor = Probe.minor_words ();
    major = Probe.major_words ();
  }

let diff a b =
  {
    events = b.events - a.events;
    msgs = b.msgs - a.msgs;
    m_host = b.m_host - a.m_host;
    m_site = b.m_site - a.m_site;
    m_wan = b.m_wan - a.m_wan;
    bytes = b.bytes - a.bytes;
    drops = b.drops - a.drops;
    dups = b.dups - a.dups;
    sheds = b.sheds - a.sheds;
    dedup = b.dedup - a.dedup;
    rq_agent = b.rq_agent - a.rq_agent;
    rq_class = b.rq_class - a.rq_class;
    rq_mag = b.rq_mag - a.rq_mag;
    rq_host = b.rq_host - a.rq_host;
    disk_writes = b.disk_writes - a.disk_writes;
    minor = b.minor -. a.minor;
    major = b.major -. a.major;
  }

(* Comm-cache statistics summed over the given clients:
   (lookups, hits, evictions). *)
let cache_stats clients =
  Array.fold_left
    (fun (l, h, e) (c : Runtime.ctx) ->
      let cache = Runtime.cache_of c.self in
      (l + Cache.lookups cache, h + Cache.hits cache, e + Cache.evictions cache))
    (0, 0, 0) clients

(* --- Virtual-time digest, in the style of the E18 trace digest: an
   order-sensitive fold over the retained event ring and the lifetime
   event count, plus the network counters. Same seed, same digest. --- *)

let digest_mask = (1 lsl 50) - 1

let digest sys =
  let obs = System.obs sys and net = System.net sys in
  let h =
    List.fold_left
      (fun acc e -> ((acc * 131) + Hashtbl.hash e) land digest_mask)
      (Recorder.total obs land digest_mask)
      (Recorder.events obs)
  in
  let h_, s_, w_ = Network.messages_by_tier net in
  Printf.sprintf
    "trace=%013x events=%d clock=%.9f msgs=%d host=%d site=%d wan=%d bytes=%d \
     drops=%d dups=%d reordered=%d corrupted=%d"
    h
    (Engine.events_fired (System.sim sys))
    (System.now sys) (Network.messages_sent net) h_ s_ w_ (Network.bytes_sent net)
    (Network.messages_dropped net)
    (Network.messages_duplicated net)
    (Network.messages_reordered net)
    (Network.messages_corrupted net)

(* --- Small numeric helpers --- *)

(* Percentile by linear interpolation between closest ranks. *)
let percentile a p =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = percentile a 50.0

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Mean of the last tenth over mean of the first tenth. *)
let late_early a =
  let n = Array.length a in
  let k = Stdlib.max 1 (n / 10) in
  if n < 2 then 1.0
  else mean (Array.sub a (n - k) k) /. mean (Array.sub a 0 k)

let per x ops = float_of_int x /. float_of_int (Stdlib.max 1 ops)
