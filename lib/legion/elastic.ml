(* Autonomic elasticity: arming the self-managing loops, plus the E19
   flash-crowd scenario and its gate.

   [enable] wires three mechanisms the paper leaves to policy code:
   - §5.2.2 class cloning made automatic: each supervised class gets an
     admission budget (so its load factor means something) and a
     [StartElastic] loop that grows/shrinks a redirect ring of clones;
   - §3.8 Scheduling Agents: a ["legion.sched.rebalance"] agent is
     derived, configured with every Jurisdiction plus freshly
     provisioned spare Magistrates, and set loose to migrate hot
     objects toward their callers and split oversized Jurisdictions;
   - §5.2.2 Binding Agent combining trees: a watch on per-period
     lookup demand at the site agents re-tiers them under a root layer
     once the flat arrangement is saturated.

   [run] is the E19 gate the bench, [legion-sim elastic] and the tests
   share: a two-site Legion where the whole object population lives in
   the east Jurisdiction and a flash crowd lands from the west, run
   static and armed. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Engine = Legion_sim.Engine
module Script = Legion_sim.Script
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Well_known = Legion_core.Well_known
module C = Legion_core.Convert
module Sched_part = Legion_sched.Sched_part
module Recorder = Legion_obs.Recorder
module Stats = Legion_util.Stats
module Std_parts = Legion_objects.Std_parts
module Prng = Legion_util.Prng

(* The control loops' settings. *)

(* Budget stamped on each supervised class object, making its load
   factor a meaningful cloning signal. Generous on purpose: the class
   is also the control hub — NotifyMagistrates, binding refreshes and
   the clone handshakes all land here, and shedding those wedges
   migrations half-done. The cloning trigger rides the demand rate, not
   budget exhaustion. *)
let class_admission =
  { Runtime.max_inflight = 16; max_queue = 64; retry_after_hint = 0.05 }

let clone_period = 2.0 (* StartElastic sampling period *)
let rebalance_period = 2.0 (* rebalancer wakeup period *)
let hot_calls = 12 (* fresh per-period calls that make an object hot *)
let split_objects = 200 (* Jurisdiction size that triggers a split *)
let spares_per_site = 1 (* spare Magistrates per site (shared storage) *)
let retier_fanout = 2 (* combining-tree fanout when re-tiering *)
let retier_lookups = 60 (* per-period agent lookups that trigger it *)

type enabled = { rebalancer : Loid.t; retier_fired : unit -> bool }

(* A spare Magistrate parked on the site: the rebalancer decides later
   whether it is ever needed. *)
let provision_spare t ctx ~site ~ordinal =
  let s = System.site t site in
  let proc =
    System.start_magistrate t ~site
      ~name:(Printf.sprintf "%s.spare%d" s.System.site_name ordinal)
      ~hosts:s.System.host_objects
  in
  let mag = Runtime.proc_loid proc in
  ignore
    (Api.call_exn t ctx ~dst:Well_known.legion_magistrate
       ~meth:"RegisterInstance"
       ~args:[ Loid.to_value mag; Address.to_value (Runtime.address_of proc) ]);
  mag

(* Watch the per-period lookup demand reaching the site Binding Agents;
   once a period serves [retier_lookups] or more, the flat arrangement
   is saturated — re-tier exactly once. *)
let retier_watch t ~until =
  let rt = System.rt t in
  let eng = System.sim t in
  let fired = ref false in
  let agent_requests () =
    List.fold_left
      (fun acc s ->
        match Runtime.find_proc rt s.System.agent with
        | Some p -> acc + Runtime.requests_of p
        | None -> acc)
      0 (System.sites t)
  in
  let last = ref (agent_requests ()) in
  let rec tick time =
    if time <= until && not !fired then
      ignore
        (Engine.schedule_at eng ~time (fun () ->
             let now_rq = agent_requests () in
             let delta = now_rq - !last in
             last := now_rq;
             if delta >= retier_lookups then begin
               fired := true;
               System.wire_agent_tree t ~fanout:retier_fanout ignore
             end
             else tick (time +. rebalance_period)))
  in
  tick (Engine.now eng +. rebalance_period);
  fun () -> !fired

let enable t ctx ~classes ~until =
  let rt = System.rt t in
  (* Supervised classes: an admission budget (the load-factor signal
     StartElastic samples) and the autonomic cloning loop. *)
  List.iter
    (fun cls ->
      (match Runtime.find_proc rt cls with
      | Some p -> Runtime.set_admission p (Some class_admission)
      | None -> ());
      ignore
        (Api.call_exn t ctx ~dst:cls ~meth:"StartElastic"
           ~args:[ Value.Float clone_period; Value.Float until ]))
    classes;
  (* Spare Magistrates, then the rebalancing Scheduling Agent. *)
  let spares =
    List.concat
      (List.mapi
         (fun i s ->
           List.init spares_per_site (fun j ->
               (provision_spare t ctx ~site:i ~ordinal:j, s.System.site_id)))
         (System.sites t))
  in
  let reb_cls =
    Api.derive_class_exn t ctx ~parent:Well_known.legion_object
      ~name:"Rebalancer"
      ~units:[ Sched_part.unit_rebalance ]
      ~idl:
        "interface Rebalancer { Configure(cfg: any); StartRebalance(period: \
         float, until: float); }"
      ~kind:Well_known.kind_sched ()
  in
  let rebalancer = Api.create_object_exn t ctx ~cls:reb_cls ~eager:true () in
  let mag_entry (mag, site) =
    Value.Record [ ("mag", Loid.to_value mag); ("site", Value.Int site) ]
  in
  let mags =
    List.map (fun s -> (s.System.magistrate, s.System.site_id)) (System.sites t)
  in
  let conf =
    Value.Record
      [
        ("magistrates", Value.List (List.map mag_entry mags));
        ("spares", Value.List (List.map mag_entry spares));
        ("hot_calls", Value.Int hot_calls);
        ("split_objects", Value.Int split_objects);
      ]
  in
  ignore (Api.call_exn t ctx ~dst:rebalancer ~meth:"Configure" ~args:[ conf ]);
  ignore
    (Api.call_exn t ctx ~dst:rebalancer ~meth:"StartRebalance"
       ~args:[ Value.Float rebalance_period; Value.Float until ]);
  let retier_fired = retier_watch t ~until in
  { rebalancer; retier_fired }

(* ------------------------------------------------------------------ *)
(* The E19 flash-crowd scenario.                                       *)

type arm = {
  arrivals : int;
  works : int;
  oks : int;
  sheds : int;
  errors : int;
  created : int;
  p50_ms : float;
  p99_ms : float;
  flash_p50_ms : float;
  flash_p99_ms : float;
  max_host_share : float;
  clones : int;
  merges : int;
  moves : int;
  splits : int;
  retier : bool;
}

let scenario_objects = 16
let scenario_zipf_s = 1.2
let scenario_horizon = 60.0
let scenario_flash_at = 20.0
let scenario_flash_width = 20.0

let scenario_profile =
  {
    Script.base_rate = 40.0;
    diurnal_amplitude = 0.25;
    diurnal_period = 60.0;
    flashes = [];
    (* The flash is attached in [run_arm], where absolute times
       are known (the virtual clock is not 0 after bootstrap). *)
  }

(* Follow §5.2.2 redirects asynchronously — the open-loop generator
   must never block on the engine, so it cannot use [Api.create_object]. *)
let async_create ctx ~cls ~hints k =
  let rec issue dst hops =
    Runtime.invoke ctx ~dst ~meth:"Create" ~args:[ Value.Record []; hints ]
      (fun r ->
        match r with
        | Ok v -> (
            match C.loid_field v "redirect" with
            | Ok clone when hops > 0 -> issue clone (hops - 1)
            | _ -> k r)
        | Error _ -> k r)
  in
  issue cls 3

let pct stats p = if Stats.is_empty stats then 0.0 else Stats.percentile stats p

let run_arm ~seed ~elastic =
  Std_parts.register_worker ();
  let sys =
    System.boot ~seed
      ~rt_config:
        {
          Runtime.default_config with
          admission = Some Runtime.default_admission;
        }
      ~sites:[ ("east", 3); ("west", 3) ]
      ()
  in
  let rt = System.rt sys in
  let eng = System.sim sys in
  let s0 = System.site sys 0 in
  let ctx = System.client sys () in
  let cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"ElasticWorker" ~units:[ Std_parts.worker_unit ]
      ~idl:Std_parts.worker_idl ()
  in
  (* The whole population is deliberately placed in the east
     Jurisdiction: the imbalance the elastic machinery must discover. *)
  let objs =
    Array.init scenario_objects (fun _ ->
        Api.create_object_exn sys ctx ~cls ~magistrate:s0.System.magistrate ())
  in
  let start = System.now sys in
  let flash_at = start +. scenario_flash_at in
  let until = start +. scenario_horizon in
  let enabled =
    if elastic then Some (enable sys ctx ~classes:[ cls ] ~until)
    else None
  in
  let count = Recorder.count (System.obs sys) in
  let clones0 = count "Clone" and merges0 = count "Merge" in
  let moves0 = count "Migrate" and splits0 = count "Split" in
  let clients =
    Array.init (List.length (System.sites sys)) (fun i ->
        System.client sys ~site:i ())
  in
  let workload =
    {
      Script.objects = scenario_objects;
      zipf_s = scenario_zipf_s;
      site_mix = [| 0.75; 0.25 |];
      profile =
        {
          scenario_profile with
          Script.flashes =
            [
              {
                Script.at = flash_at;
                width = scenario_flash_width;
                boost = 6.0;
                site = Some 1;
              };
            ];
        };
    }
  in
  let arrivals = ref 0 in
  let works = ref 0 in
  let oks = ref 0 in
  let sheds = ref 0 in
  let errors = ref 0 in
  let created = ref 0 in
  let all = Stats.create () in
  let flash = Stats.create () in
  let host_served = Hashtbl.create 16 in
  let create_hints =
    Value.Record
      [
        ("magistrate", C.vopt Loid.to_value (Some s0.System.magistrate));
        ("host", C.vopt Loid.to_value None);
        ("sched", C.vopt Loid.to_value None);
        ("candidates", C.vloids []);
        ("public_key", C.vopt Value.of_string None);
        ("eager", Value.Bool false);
      ]
  in
  (* The settled half of the flash window: the first half is where
     clones and migrations are still catching up. *)
  let flash_settled_lo = flash_at +. (scenario_flash_width /. 2.0) in
  let flash_settled_hi = flash_at +. scenario_flash_width in
  let fire ~seq ~obj ~site =
    incr arrivals;
    let c = clients.(site) in
    if seq mod 8 = 0 then
      (* Population churn: every eighth arrival is an instantiation
         request against the class — the §5.2.2 cloning load. *)
      async_create c ~cls ~hints:create_hints (fun r ->
          match r with
          | Ok _ -> incr created
          | Error (Err.Overloaded _) -> incr sheds
          | Error _ -> incr errors)
    else begin
      incr works;
      let t0 = Engine.now eng in
      let dst = objs.(obj) in
      Runtime.invoke c ~dst ~meth:"Work"
        ~args:[ Value.Float 0.002 ]
        (fun r ->
          match r with
          | Ok _ ->
              incr oks;
              let dt = Engine.now eng -. t0 in
              Stats.add all dt;
              if site = 1 && t0 >= flash_settled_lo && t0 <= flash_settled_hi
              then Stats.add flash dt;
              (match Runtime.find_proc rt dst with
              | Some p ->
                  let h = Runtime.proc_host p in
                  Hashtbl.replace host_served h
                    (1 + Option.value ~default:0 (Hashtbl.find_opt host_served h))
              | None -> ())
          | Error (Err.Overloaded _) -> incr sheds
          | Error _ -> incr errors)
    end
  in
  let prng = Prng.create ~seed:(Int64.logxor seed 0x9e3779b97f4a7c15L) in
  Script.drive eng ~prng workload ~start ~until fire;
  System.run_for sys (scenario_horizon +. 10.0);
  let total_served = Hashtbl.fold (fun _ n acc -> acc + n) host_served 0 in
  let max_served = Hashtbl.fold (fun _ n acc -> Stdlib.max acc n) host_served 0 in
  let max_host_share =
    if total_served = 0 then 0.0
    else float_of_int max_served /. float_of_int total_served
  in
  {
    arrivals = !arrivals;
    works = !works;
    oks = !oks;
    sheds = !sheds;
    errors = !errors;
    created = !created;
    p50_ms = pct all 50.0 *. 1000.0;
    p99_ms = pct all 99.0 *. 1000.0;
    flash_p50_ms = pct flash 50.0 *. 1000.0;
    flash_p99_ms = pct flash 99.0 *. 1000.0;
    max_host_share;
    clones = count "Clone" - clones0;
    merges = count "Merge" - merges0;
    moves = count "Migrate" - moves0;
    splits = count "Split" - splits0;
    retier =
      (match enabled with Some e -> e.retier_fired () | None -> false);
  }

(* ------------------------------------------------------------------ *)
(* The E19 gate.                                                       *)

type config = { seed : int64 }

let default = { seed = 42L }

type report = {
  cfg : config;
  baseline : arm;
  elastic : arm;
  deterministic : bool;
}

let max_flash_p50_ratio = 0.5
let max_share_ratio = 0.85
let max_errors = 0

let arm_json ~seed ~elastic a =
  Printf.sprintf
    "{\"elastic\": %b, \"seed\": %Ld, \"arrivals\": %d, \"works\": %d, \
     \"oks\": %d, \"sheds\": %d, \"errors\": %d, \"created\": %d, \
     \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"flash_p50_ms\": %.3f, \
     \"flash_p99_ms\": %.3f, \"max_host_share\": %.4f, \"clones\": %d, \
     \"merges\": %d, \"moves\": %d, \"splits\": %d, \"retier\": %b}"
    elastic seed a.arrivals a.works a.oks a.sheds a.errors a.created
    a.p50_ms a.p99_ms a.flash_p50_ms a.flash_p99_ms a.max_host_share a.clones
    a.merges a.moves a.splits a.retier

let run cfg =
  let baseline = run_arm ~seed:cfg.seed ~elastic:false in
  let elastic = run_arm ~seed:cfg.seed ~elastic:true in
  let again = run_arm ~seed:cfg.seed ~elastic:true in
  let json = arm_json ~seed:cfg.seed ~elastic:true in
  {
    cfg;
    baseline;
    elastic;
    deterministic = String.equal (json elastic) (json again);
  }

let flash_ratio r = r.elastic.flash_p50_ms /. r.baseline.flash_p50_ms
let share_ratio r = r.elastic.max_host_share /. r.baseline.max_host_share

let violations r =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := ("E19: " ^ m) :: !violations) fmt
  in
  let b = r.baseline and e = r.elastic in
  if not r.deterministic then
    violate "elastic report not byte-deterministic for seed %Ld" r.cfg.seed;
  if flash_ratio r > max_flash_p50_ratio then
    violate
      "flash p50 ratio %.3f > ceiling %.2f (elastic %.2f ms, baseline %.2f ms)"
      (flash_ratio r) max_flash_p50_ratio e.flash_p50_ms b.flash_p50_ms;
  if share_ratio r > max_share_ratio then
    violate "host-share ratio %.3f > ceiling %.2f" (share_ratio r)
      max_share_ratio;
  if e.errors > max_errors then
    violate "elastic run saw %d errors (budget %d)" e.errors max_errors;
  if b.errors > max_errors then
    violate "baseline run saw %d errors (budget %d)" b.errors max_errors;
  if e.clones < 1 then violate "elastic run never cloned";
  if e.merges < 1 then violate "elastic run never merged a clone back";
  if e.moves < 1 then violate "elastic run never migrated an object";
  if e.splits < 1 then violate "elastic run never split a Jurisdiction";
  if not e.retier then violate "agent tree never re-tiered";
  if b.clones + b.merges + b.moves + b.splits <> 0 || b.retier then
    violate "baseline run adapted; the control is contaminated";
  List.rev !violations

let to_json r =
  Printf.sprintf
    "{\"seed\": %Ld, \"baseline\": %s, \"elastic\": %s, \"flash_p50_ratio\": \
     %.4f, \"share_ratio\": %.4f, \"deterministic\": %b, \"gates\": \
     {\"max_flash_p50_ratio\": %.2f, \"max_share_ratio\": %.2f, \
     \"max_errors\": %d}}"
    r.cfg.seed
    (arm_json ~seed:r.cfg.seed ~elastic:false r.baseline)
    (arm_json ~seed:r.cfg.seed ~elastic:true r.elastic)
    (flash_ratio r) (share_ratio r) r.deterministic max_flash_p50_ratio
    max_share_ratio max_errors

let print r =
  let row label a =
    [
      label;
      string_of_int a.arrivals;
      Printf.sprintf "%d/%d" a.oks a.works;
      string_of_int a.sheds;
      string_of_int a.errors;
      Printf.sprintf "%.2f" a.flash_p50_ms;
      Printf.sprintf "%.2f" a.flash_p99_ms;
      Printf.sprintf "%.1f%%" (100.0 *. a.max_host_share);
      Printf.sprintf "%d/%d/%d/%d" a.clones a.merges a.moves a.splits;
      (if a.retier then "yes" else "no");
    ]
  in
  Legion_util.Table.print
    ~title:
      (Printf.sprintf
         "E19  Zipf flash crowd, seed %Ld (settled flash window, flash-site \
          callers)"
         r.cfg.seed)
    ~header:
      [
        "run"; "arrivals"; "ok"; "sheds"; "errors"; "fl p50 ms"; "fl p99 ms";
        "max host"; "cl/mg/mv/sp"; "retier";
      ]
    [ row "baseline" r.baseline; row "elastic" r.elastic ];
  Printf.printf
    "flash p50 ratio %.3f (ceiling %.2f); host-share ratio %.3f (ceiling \
     %.2f); deterministic: %b\n"
    (flash_ratio r) max_flash_p50_ratio (share_ratio r) max_share_ratio
    r.deterministic
