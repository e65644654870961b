(* E18 planetary sweep: the §5 mechanism experiments at 10^5 objects /
   10^3+ hosts, plus a raw event-queue kernel. See planet.mli for the
   determinism contract. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Cache = Legion_naming.Cache
module Prng = Legion_util.Prng
module Sampler = Legion_util.Sampler
module Counter = Legion_util.Counter
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Recorder = Legion_obs.Recorder

type config = {
  seed : int64;
  sites : int;
  hosts_per_site : int;
  objects : int;
  calls : int;
  zipf_s : float;
  cache_capacity : int option;
  tree_fanout : int;
  tree_levels : int;
  tree_leaves : int;
  tree_classes : int;
  clones : int;
  clone_creates : int;
  queue_events : int;
}

let default =
  {
    seed = 18L;
    sites = 32;
    hosts_per_site = 32;
    objects = 100_000;
    calls = 100_000;
    zipf_s = 0.9;
    cache_capacity = Some 4096;
    tree_fanout = 4;
    tree_levels = 3;
    tree_leaves = 32;
    tree_classes = 32;
    clones = 8;
    clone_creates = 2_048;
    queue_events = 10_000_000;
  }

let smoke =
  {
    default with
    sites = 4;
    hosts_per_site = 4;
    objects = 1_000;
    calls = 2_000;
    tree_leaves = 8;
    tree_classes = 8;
    clones = 4;
    clone_creates = 128;
    queue_events = 200_000;
  }

type kernel = {
  k_name : string;
  k_events : int;
  k_clock : float;
  k_msgs : int;
  k_bytes : int;
  k_drops : int;
  k_metrics : (string * float) list;
  k_digest : int;
}

type report = { cfg : config; kernels : kernel list; total_events : int }

(* ------------------------------------------------------------------ *)
(* Fixture: the standard counter, one class per kernel.                *)

module Std_parts = Legion_objects.Std_parts

let make_counter_class sys ctx ?(name = "PlanetCounter") () =
  Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name
    ~units:[ Std_parts.counter_unit ] ~idl:Std_parts.counter_idl ()

let boot cfg ~seed_off =
  Std_parts.register_counter ();
  let sites =
    List.init cfg.sites (fun i -> (Printf.sprintf "s%d" i, cfg.hosts_per_site))
  in
  System.boot ~seed:(Int64.add cfg.seed seed_off) ~sites ()

(* Single-pass group sum over the counter registry — the exp_common
   snapshot/delta helpers are O(n^2) and unusable at 10^5 counters. *)
let group_total sys g = Counter.Registry.group_total (System.registry sys) g

let digest_mask = (1 lsl 50) - 1

(* Order-sensitive fold over the retained trace ring plus the lifetime
   event count: any reordering, insertion, or loss of a structured
   event changes this number. *)
let trace_digest sys =
  let obs = System.obs sys in
  Recorder.fold_since obs 0
    (fun acc e -> ((acc * 131) + Hashtbl.hash e) land digest_mask)
    (Recorder.total obs land digest_mask)

let finish sys ~name ~metrics =
  let net = System.net sys in
  {
    k_name = name;
    k_events = Engine.events_fired (System.sim sys);
    k_clock = System.now sys;
    k_msgs = Network.messages_sent net;
    k_bytes = Network.bytes_sent net;
    k_drops = Network.messages_dropped net;
    k_metrics = metrics;
    k_digest = trace_digest sys;
  }

(* ------------------------------------------------------------------ *)
(* Kernel 1: the raw event heap. No runtime, no network — just the
   engine chewing through [queue_events] self-rescheduling events with
   interleaved schedule/cancel churn.                                  *)

let run_queue cfg progress =
  let sim = Engine.create () in
  let prng = Prng.create ~seed:(Int64.add cfg.seed 3L) in
  let budget = ref cfg.queue_events in
  let cancelled = ref 0 in
  let chains = Stdlib.min 10_000 (Stdlib.max 1 (cfg.queue_events / 100)) in
  let rec tick () =
    if !budget > 0 then begin
      decr budget;
      if !budget land 63 = 0 then begin
        (* Exercise the cancellation path: a far-future event that
           leaves the heap at once, never fired. *)
        let h = Engine.schedule sim ~delay:1e9 tick in
        Engine.cancel h;
        incr cancelled
      end;
      Engine.post sim ~delay:(Prng.float prng 1.0) tick
    end
  in
  for _ = 1 to chains do
    Engine.post sim ~delay:(Prng.float prng 1.0) tick
  done;
  Engine.run sim;
  progress
    (Printf.sprintf "queue: %d events fired, clock %.1f"
       (Engine.events_fired sim) (Engine.now sim));
  {
    k_name = "queue";
    k_events = Engine.events_fired sim;
    k_clock = Engine.now sim;
    k_msgs = 0;
    k_bytes = 0;
    k_drops = 0;
    k_metrics =
      [
        ("cancelled", float_of_int !cancelled);
        ("pending_end", float_of_int (Engine.pending sim));
      ];
    k_digest =
      Hashtbl.hash (Engine.events_fired sim, Engine.now sim) land digest_mask;
  }

(* ------------------------------------------------------------------ *)
(* Kernel 2: E2 at scale — [objects] counters spread round-robin over
   every site's Magistrate, then [calls] Zipf-skewed invocations from
   one bounded-cache client.                                           *)

let run_cache cfg progress =
  let sys = boot cfg ~seed_off:1L in
  let ctx = System.client sys () in
  let cls = make_counter_class sys ctx () in
  let mags =
    Array.of_list (List.map (fun s -> s.System.magistrate) (System.sites sys))
  in
  let nmags = Array.length mags in
  let objects =
    Array.init cfg.objects (fun i ->
        if i > 0 && i mod 20_000 = 0 then
          progress (Printf.sprintf "cache: created %d/%d objects" i cfg.objects);
        Api.create_object_exn sys ctx ~cls ~magistrate:mags.(i mod nmags) ())
  in
  let site0 = System.site sys 0 in
  let loid = System.fresh_instance_loid sys ~of_class:Well_known.legion_object in
  (* Off the site's infrastructure host when the site has another. *)
  let client_host =
    match site0.System.net_hosts with
    | _ :: second :: _ -> second
    | hosts -> List.hd hosts
  in
  let client =
    Runtime.spawn (System.rt sys) ~host:client_host
      ~loid ~kind:"bench_client" ?cache_capacity:cfg.cache_capacity
      ~binding_agent:site0.System.agent_address
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let cctx = { Runtime.rt = System.rt sys; self = client } in
  let prng = Prng.create ~seed:(Int64.add cfg.seed 101L) in
  let z = Sampler.zipf prng ~n:cfg.objects ~s:cfg.zipf_s in
  let agent0 = group_total sys Well_known.kind_binding_agent in
  let ok = ref 0 in
  for i = 1 to cfg.calls do
    let target = objects.(Sampler.zipf_draw z) in
    (match Api.call sys cctx ~dst:target ~meth:"Increment" ~args:[ Value.Int 1 ] with
    | Ok _ -> incr ok
    | Error _ -> ());
    if i mod 20_000 = 0 then
      progress (Printf.sprintf "cache: %d/%d calls" i cfg.calls)
  done;
  let agent_rq = group_total sys Well_known.kind_binding_agent - agent0 in
  finish sys ~name:"cache"
    ~metrics:
      [
        ("calls_ok", float_of_int !ok);
        ( "agent_rq_per_call",
          float_of_int agent_rq /. float_of_int (Stdlib.max 1 cfg.calls) );
        ("client_hit_rate", Cache.hit_rate (Runtime.cache_of client));
      ]

(* ------------------------------------------------------------------ *)
(* Kernel 3: E3 at depth — a fanout^levels Binding Agent combining
   tree; every leaf cold-resolves every class, and we count what still
   reaches LegionClass.                                                *)

let run_tree cfg progress =
  let sys = boot cfg ~seed_off:2L in
  let ctx = System.client sys () in
  let classes =
    List.init cfg.tree_classes (fun i ->
        make_counter_class sys ctx ~name:(Printf.sprintf "C%d" i) ())
  in
  let tree =
    Agent_tree.build sys
      ~hosts:(System.site sys 0).System.net_hosts
      ~fanout:(Stdlib.max 1 cfg.tree_fanout)
      ~levels:cfg.tree_levels ~n_leaves:cfg.tree_leaves
  in
  let leaves = tree.Agent_tree.leaves in
  let lc_prefix = Loid.to_string Well_known.legion_class ^ "@" in
  let lc_total () =
    List.fold_left
      (fun acc c ->
        let n = Counter.name c in
        if
          Counter.group c = Well_known.kind_class
          && String.length n >= String.length lc_prefix
          && String.sub n 0 (String.length lc_prefix) = lc_prefix
        then acc + Counter.value c
        else acc)
      0
      (Counter.Registry.all (System.registry sys))
  in
  let lc0 = lc_total () in
  let env = Legion_sec.Env.of_self (Runtime.proc_loid ctx.Runtime.self) in
  List.iter
    (fun leaf ->
      List.iter
        (fun cls ->
          let r =
            Api.sync sys (fun k ->
                Runtime.invoke_address ctx
                  ~address:(Runtime.address_of leaf)
                  ~dst:Loid.wildcard ~meth:"GetBinding" ~args:[ Loid.to_value cls ]
                  ~env k)
          in
          match r with
          | Ok _ -> ()
          | Error e -> failwith ("tree resolve failed: " ^ Err.to_string e))
        classes)
    leaves;
  let lookups = cfg.tree_leaves * cfg.tree_classes in
  progress
    (Printf.sprintf "tree: %d lookups through depth-%d fan-out-%d tree" lookups
       cfg.tree_levels cfg.tree_fanout);
  finish sys ~name:"tree"
    ~metrics:
      [
        ("lookups", float_of_int lookups);
        ( "legion_class_rq_per_lookup",
          float_of_int (lc_total () - lc0)
          /. float_of_int (Stdlib.max 1 lookups) );
      ]

(* ------------------------------------------------------------------ *)
(* Kernel 4: E4 at scale — [clone_creates] Create requests round-robin
   over [clones] clones of one hot class; metric is the most-loaded
   family member's share.                                              *)

let run_clone cfg progress =
  let sys = boot cfg ~seed_off:4L in
  let ctx = System.client sys () in
  let base = make_counter_class sys ctx () in
  let clones =
    base
    :: List.init
         (Stdlib.max 0 (cfg.clones - 1))
         (fun _ ->
           match Api.call sys ctx ~dst:base ~meth:"Clone" ~args:[] with
           | Ok v -> (
               match Legion_core.Convert.loid_field v "loid" with
               | Ok l -> l
               | Error e -> failwith e)
           | Error e -> failwith (Err.to_string e))
  in
  let clone_arr = Array.of_list clones in
  let prefixes = List.map (fun c -> Loid.to_string c ^ "@") clones in
  let is_clone n =
    List.exists
      (fun p ->
        String.length n >= String.length p
        && String.sub n 0 (String.length p) = p)
      prefixes
  in
  let before = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if Counter.group c = Well_known.kind_class && is_clone (Counter.name c)
      then Hashtbl.replace before (Counter.name c) (Counter.value c))
    (Counter.Registry.all (System.registry sys));
  for i = 0 to cfg.clone_creates - 1 do
    let cls = clone_arr.(i mod Array.length clone_arr) in
    match Api.create_object sys ctx ~cls () with
    | Ok _ -> ()
    | Error e -> failwith ("create: " ^ Err.to_string e)
  done;
  let max_rq, total_rq =
    List.fold_left
      (fun (mx, tot) c ->
        if Counter.group c = Well_known.kind_class && is_clone (Counter.name c)
        then
          let v0 =
            Option.value ~default:0 (Hashtbl.find_opt before (Counter.name c))
          in
          let d = Counter.value c - v0 in
          (Stdlib.max mx d, tot + d)
        else (mx, tot))
      (0, 0)
      (Counter.Registry.all (System.registry sys))
  in
  progress
    (Printf.sprintf "clone: %d creates over %d clones" cfg.clone_creates
       cfg.clones);
  finish sys ~name:"clone"
    ~metrics:
      [
        ("family_rq", float_of_int total_rq);
        ("max_rq_per_object", float_of_int max_rq);
        ( "max_share",
          float_of_int max_rq /. float_of_int (Stdlib.max 1 total_rq) );
      ]

(* ------------------------------------------------------------------ *)

let run ?(progress = fun _ -> ()) cfg =
  (* Explicit sequencing: list elements evaluate right-to-left. *)
  let queue = run_queue cfg progress in
  let cache = run_cache cfg progress in
  let tree = run_tree cfg progress in
  let clone = run_clone cfg progress in
  let kernels = [ queue; cache; tree; clone ] in
  {
    cfg;
    kernels;
    total_events = List.fold_left (fun acc k -> acc + k.k_events) 0 kernels;
  }

let to_json r =
  let b = Buffer.create 1024 in
  let cfg = r.cfg in
  Buffer.add_string b
    (Printf.sprintf
       "{\"experiment\": \"E18\", \"seed\": %Ld, \"sites\": %d, \
        \"hosts_per_site\": %d, \"objects\": %d, \"calls\": %d, \"zipf_s\": \
        %.3f, \"cache_capacity\": %s, \"tree_fanout\": %d, \"tree_levels\": \
        %d, \"tree_leaves\": %d, \"tree_classes\": %d, \"clones\": %d, \
        \"clone_creates\": %d, \"queue_events\": %d, \"kernels\": ["
       cfg.seed cfg.sites cfg.hosts_per_site cfg.objects cfg.calls cfg.zipf_s
       (match cfg.cache_capacity with
       | None -> "null"
       | Some c -> string_of_int c)
       cfg.tree_fanout cfg.tree_levels cfg.tree_leaves cfg.tree_classes
       cfg.clones cfg.clone_creates cfg.queue_events);
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\": \"%s\", \"events\": %d, \"clock\": %.9f, \"msgs\": %d, \
            \"bytes\": %d, \"drops\": %d, \"digest\": %d"
           k.k_name k.k_events k.k_clock k.k_msgs k.k_bytes k.k_drops
           k.k_digest);
      List.iter
        (fun (name, v) ->
          Buffer.add_string b (Printf.sprintf ", \"%s\": %.6f" name v))
        k.k_metrics;
      Buffer.add_string b "}")
    r.kernels;
  Buffer.add_string b
    (Printf.sprintf "], \"total_events\": %d}" r.total_events);
  Buffer.contents b

let print r =
  Legion_util.Table.print
    ~title:
      (Printf.sprintf
         "E18  Planetary sweep (%d sites x %d hosts, %d objects, %d raw queue \
          events)"
         r.cfg.sites r.cfg.hosts_per_site r.cfg.objects r.cfg.queue_events)
    ~header:[ "kernel"; "events"; "virt clock"; "msgs"; "drops"; "digest" ]
    (List.map
       (fun k ->
         [
           k.k_name;
           string_of_int k.k_events;
           Printf.sprintf "%.3f" k.k_clock;
           string_of_int k.k_msgs;
           string_of_int k.k_drops;
           string_of_int k.k_digest;
         ])
       r.kernels)
