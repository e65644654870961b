(* Multi-tenant hardening: the E21 noisy-neighbor scenario and its gate.

   The runtime's tenancy layer (Legion_rt.Tenant + the deficit-round-
   robin admission lanes in Legion_rt.Runtime) keys budgets off the
   §2.4 Responsible Agent. This module is the experiment that gates it:
   four registered tenants share a small pool of budgeted workers; one
   of them (mallory) can be driven at 10x its token budget, and one
   unauthorized principal (eve) probes from another site against a
   class whose binding policy excludes her. The gates: the offender's
   overload must not move the other tenants' p99, every shed must be
   attributed to the offender, and eve must be answered [Err.Denied]
   at GetBinding — she never receives a binding. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Engine = Legion_sim.Engine
module Env = Legion_sec.Env
module Policy = Legion_sec.Policy
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Tenant = Legion_rt.Tenant
module Well_known = Legion_core.Well_known
module Recorder = Legion_obs.Recorder
module Event = Legion_obs.Event
module Ustats = Legion_util.Stats
module Prng = Legion_util.Prng
module Std_parts = Legion_objects.Std_parts

(* ------------------------------------------------------------------ *)
(* Scenario shape.                                                     *)

type lane = {
  tenant : string;
  sent : int;
  oks : int;
  quota_shed : int;  (** Caller-visible [Quota_exceeded] / [Overloaded]. *)
  errors : int;  (** Anything else that was not Ok. *)
  p50_ms : float;
  p99_ms : float;
}

type arm = {
  lanes : lane list;  (** alpha, beta, gamma, mallory — fixed order. *)
  shed_events : int;  (** [Shed] events in the scenario window. *)
  shed_by_offender : int;  (** ... attributed to mallory. *)
  shed_unattributed : int;  (** ... carrying no tenant tag (must be 0). *)
  deny_events : int;  (** [Deny] events in the window. *)
  deny_by_eve : int;  (** ... attributed to eve. *)
  eve_probes : int;
  eve_denied : int;  (** Probes answered [Err.Denied]. *)
  eve_bindings : int;  (** Probes that got a binding (must be 0). *)
}

let offender = "mallory"
let well_behaved = [ "alpha"; "beta"; "gamma" ]
let scenario_workers = 2
let scenario_horizon = 30.0
let scenario_work_d = 0.008
let scenario_rate = 20.0 (* each tenant's driven arrivals per second *)
let scenario_budget_rate = 25.0 (* the offender's token budget *)
let scenario_noisy_factor = 10.0 (* offender drive = 10x its budget *)
let scenario_probe_period = 0.5

let worker_admission =
  { Runtime.max_inflight = 1; max_queue = 16; retry_after_hint = 0.02 }

let pct stats p = if Ustats.is_empty stats then 0.0 else Ustats.percentile stats p

(* Pre-generate one tenant's Poisson arrivals (time, worker index) from
   its own derived stream, so adding a tenant never perturbs another
   tenant's draws and the schedule is independent of event interleaving. *)
let arrivals_of ~seed ~salt ~rate ~start ~until =
  let prng = Prng.create ~seed:(Int64.logxor seed salt) in
  let rec gen t acc =
    let t = t +. Prng.exponential prng ~mean:(1.0 /. rate) in
    if t > until then List.rev acc
    else gen t ((t, Prng.int prng scenario_workers) :: acc)
  in
  gen start []

let run_arm ~seed ~noisy =
  Std_parts.register_worker ();
  let sys =
    System.boot ~seed
      ~rt_config:
        { Runtime.default_config with admission = Some worker_admission }
      ~trace_capacity:(1 lsl 18)
      ~sites:[ ("east", 3); ("west", 3) ]
      ()
  in
  let rt = System.rt sys in
  let eng = System.sim sys in
  let s0 = System.site sys 0 in
  let admin = System.client sys () in
  let cls =
    Api.derive_class_exn sys admin ~parent:Well_known.legion_object
      ~name:"TenantWorker" ~units:[ Std_parts.worker_unit ]
      ~idl:Std_parts.worker_idl ()
  in
  let workers =
    Array.init scenario_workers (fun _ ->
        Api.create_object_exn sys admin ~cls ~eager:true
          ~magistrate:s0.System.magistrate ())
  in
  (* One client per principal: the client LOID is the Responsible Agent
     every call of that tenant runs under. eve lives on the west site so
     her resolutions miss the east agent's cache and reach the class. *)
  let mk_client site = System.client sys ~site () in
  let cl_alpha = mk_client 0
  and cl_beta = mk_client 0
  and cl_gamma = mk_client 0
  and cl_mallory = mk_client 0
  and cl_eve = mk_client 1 in
  let loid_of (c : Runtime.ctx) = Runtime.proc_loid c.Runtime.self in
  let reg = Tenant.create () in
  List.iter
    (fun (name, c) ->
      ignore
        (Tenant.register reg ~name ~responsible:(loid_of c)
           ~rate:(2.0 *. scenario_budget_rate) ()))
    [ ("alpha", cl_alpha); ("beta", cl_beta); ("gamma", cl_gamma) ];
  ignore
    (Tenant.register reg ~name:offender ~responsible:(loid_of cl_mallory)
       ~rate:scenario_budget_rate ());
  ignore (Tenant.register reg ~name:"eve" ~responsible:(loid_of cl_eve) ());
  Runtime.set_tenants rt (Some reg);
  (* Close the binding path: only the four cleared principals (and the
     operator that owns the class) may resolve or instantiate. *)
  let cleared =
    Loid.Set.of_list
      (List.map loid_of [ admin; cl_alpha; cl_beta; cl_gamma; cl_mallory ])
  in
  ignore
    (Api.call_exn sys admin ~dst:cls ~meth:"SetBindingPolicy"
       ~args:[ Policy.to_value (Policy.Allow_responsible cleared) ]);
  let mark = Recorder.total (System.obs sys) in
  let start = System.now sys in
  let until = start +. scenario_horizon in
  (* Per-tenant drive + measurement. *)
  let tenants =
    [
      ("alpha", cl_alpha, scenario_rate, 0x5f1a_0001L);
      ("beta", cl_beta, scenario_rate, 0x5f1a_0002L);
      ("gamma", cl_gamma, scenario_rate, 0x5f1a_0003L);
      ( offender,
        cl_mallory,
        (if noisy then scenario_noisy_factor *. scenario_budget_rate
         else scenario_rate),
        0x5f1a_0004L );
    ]
  in
  let measured =
    List.map
      (fun (name, ctx, rate, salt) ->
        let sent = ref 0
        and oks = ref 0
        and quota = ref 0
        and errors = ref 0 in
        let lat = Ustats.create () in
        List.iter
          (fun (t, w) ->
            ignore
              (Engine.schedule_at eng ~time:t (fun () ->
                   incr sent;
                   let t0 = Engine.now eng in
                   Runtime.invoke ctx ~dst:workers.(w) ~meth:"Work"
                     ~args:[ Value.Float scenario_work_d ]
                     (fun r ->
                       match r with
                       | Ok _ ->
                           incr oks;
                           Ustats.add lat (Engine.now eng -. t0)
                       | Error (Err.Quota_exceeded _ | Err.Overloaded _) ->
                           incr quota
                       | Error _ -> incr errors))))
          (arrivals_of ~seed ~salt ~rate ~start ~until);
        (name, sent, oks, quota, errors, lat))
      tenants
  in
  (* eve's probes: each must die at GetBinding with [Denied] — never a
     binding, never a Work reply. *)
  let eve_probes = ref 0
  and eve_denied = ref 0
  and eve_bindings = ref 0 in
  let n_probes = int_of_float (scenario_horizon /. scenario_probe_period) - 1 in
  for i = 1 to n_probes do
    let t = start +. (float_of_int i *. scenario_probe_period) in
    ignore
      (Engine.schedule_at eng ~time:t (fun () ->
           incr eve_probes;
           Runtime.invoke cl_eve
             ~dst:workers.(i mod scenario_workers)
             ~meth:"Work"
             ~args:[ Value.Float scenario_work_d ]
             (fun r ->
               match r with
               | Error (Err.Denied _) -> incr eve_denied
               | Error _ -> ()
               | Ok _ -> incr eve_bindings)))
  done;
  System.run_for sys (scenario_horizon +. 10.0);
  let shed_events = ref 0
  and shed_by_offender = ref 0
  and shed_unattributed = ref 0
  and deny_events = ref 0
  and deny_by_eve = ref 0 in
  Recorder.fold_since (System.obs sys) mark
    (fun () (ev : Event.t) ->
      match ev.Event.kind with
      | Event.Shed { tenant; _ } -> (
          incr shed_events;
          match tenant with
          | Some t when String.equal t offender -> incr shed_by_offender
          | Some _ -> ()
          | None -> incr shed_unattributed)
      | Event.Deny { tenant; _ } ->
          incr deny_events;
          if String.equal tenant "eve" then incr deny_by_eve
      | _ -> ())
    ();
  let lanes =
    List.map
      (fun (name, sent, oks, quota, errors, lat) ->
        {
          tenant = name;
          sent = !sent;
          oks = !oks;
          quota_shed = !quota;
          errors = !errors;
          p50_ms = pct lat 50.0 *. 1000.0;
          p99_ms = pct lat 99.0 *. 1000.0;
        })
      measured
  in
  {
    lanes;
    shed_events = !shed_events;
    shed_by_offender = !shed_by_offender;
    shed_unattributed = !shed_unattributed;
    deny_events = !deny_events;
    deny_by_eve = !deny_by_eve;
    eve_probes = !eve_probes;
    eve_denied = !eve_denied;
    eve_bindings = !eve_bindings;
  }

(* ------------------------------------------------------------------ *)
(* The E21 gate.                                                       *)

type config = { seed : int64 }

let default = { seed = 42L }

type report = { cfg : config; quiet : arm; noisy : arm; deterministic : bool }

let max_p99_shift_ms = 25.0
let max_errors = 0

let lane_json l =
  Printf.sprintf
    "{\"tenant\": \"%s\", \"sent\": %d, \"oks\": %d, \"quota_shed\": %d, \
     \"errors\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f}"
    l.tenant l.sent l.oks l.quota_shed l.errors l.p50_ms l.p99_ms

let arm_json ~seed ~noisy a =
  Printf.sprintf
    "{\"noisy\": %b, \"seed\": %Ld, \"lanes\": [%s], \"shed_events\": %d, \
     \"shed_by_offender\": %d, \"shed_unattributed\": %d, \"deny_events\": \
     %d, \"deny_by_eve\": %d, \"eve_probes\": %d, \"eve_denied\": %d, \
     \"eve_bindings\": %d}"
    noisy seed
    (String.concat ", " (List.map lane_json a.lanes))
    a.shed_events a.shed_by_offender a.shed_unattributed a.deny_events
    a.deny_by_eve a.eve_probes a.eve_denied a.eve_bindings

let run cfg =
  let quiet = run_arm ~seed:cfg.seed ~noisy:false in
  let noisy = run_arm ~seed:cfg.seed ~noisy:true in
  let again = run_arm ~seed:cfg.seed ~noisy:true in
  let json = arm_json ~seed:cfg.seed ~noisy:true in
  { cfg; quiet; noisy; deterministic = String.equal (json noisy) (json again) }

let find_lane a name =
  List.find_opt (fun l -> String.equal l.tenant name) a.lanes

(* Each well-behaved tenant's |noisy - quiet| p99, nan if a lane is
   missing (the lane check reports that). *)
let shifts r =
  let p99 a name =
    match find_lane a name with Some l -> l.p99_ms | None -> nan
  in
  List.map
    (fun name -> (name, Float.abs (p99 r.noisy name -. p99 r.quiet name)))
    well_behaved

let worst_shift r =
  List.fold_left (fun a (_, s) -> Float.max a s) 0.0 (shifts r)

let violations r =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := ("E21: " ^ m) :: !violations) fmt
  in
  let n = r.noisy in
  if not r.deterministic then
    violate "tenants report not byte-deterministic for seed %Ld" r.cfg.seed;
  List.iter
    (fun (name, s) ->
      if s > max_p99_shift_ms then
        violate "%s p99 moved %.2f ms under the noisy neighbor (ceiling %.1f)"
          name s max_p99_shift_ms)
    (shifts r);
  if n.shed_events < 1 then
    violate "noisy run never shed: the offender was not over budget";
  if n.shed_by_offender <> n.shed_events then
    violate "%d of %d sheds not attributed to the offender"
      (n.shed_events - n.shed_by_offender)
      n.shed_events;
  if n.shed_unattributed <> 0 then
    violate "%d sheds carried no tenant tag" n.shed_unattributed;
  List.iter
    (fun (tag, a) ->
      if a.eve_probes < 1 then violate "%s run: eve never probed" tag;
      if a.eve_denied <> a.eve_probes then
        violate "%s run: only %d of %d eve probes answered Denied" tag
          a.eve_denied a.eve_probes;
      if a.eve_bindings <> 0 then
        violate "%s run: eve resolved a binding %d times" tag a.eve_bindings;
      if a.deny_by_eve < a.eve_probes then
        violate "%s run: only %d Deny events attributed to eve for %d probes"
          tag a.deny_by_eve a.eve_probes;
      List.iter
        (fun name ->
          match find_lane a name with
          | None -> violate "%s run: lane %s missing" tag name
          | Some l ->
              if l.quota_shed > 0 then
                violate "%s run: well-behaved %s saw %d quota sheds" tag name
                  l.quota_shed;
              if l.errors > max_errors then
                violate "%s run: %s saw %d errors (budget %d)" tag name
                  l.errors max_errors)
        well_behaved)
    [ ("quiet", r.quiet); ("noisy", r.noisy) ];
  List.rev !violations

let to_json r =
  Printf.sprintf
    "{\"seed\": %Ld, \"quiet\": %s, \"noisy\": %s, \"worst_p99_shift_ms\": \
     %.4f, \"deterministic\": %b, \"gates\": {\"max_p99_shift_ms\": %.1f, \
     \"max_errors\": %d}}"
    r.cfg.seed
    (arm_json ~seed:r.cfg.seed ~noisy:false r.quiet)
    (arm_json ~seed:r.cfg.seed ~noisy:true r.noisy)
    (worst_shift r) r.deterministic max_p99_shift_ms max_errors

let print r =
  let rows tag a =
    List.map
      (fun l ->
        [
          tag;
          l.tenant;
          string_of_int l.sent;
          string_of_int l.oks;
          string_of_int l.quota_shed;
          string_of_int l.errors;
          Printf.sprintf "%.2f" l.p50_ms;
          Printf.sprintf "%.2f" l.p99_ms;
        ])
      a.lanes
  in
  Legion_util.Table.print
    ~title:
      (Printf.sprintf "E21  noisy neighbor, seed %Ld (mallory 10x budget)"
         r.cfg.seed)
    ~header:
      [ "run"; "tenant"; "sent"; "ok"; "shed"; "errors"; "p50 ms"; "p99 ms" ]
    (rows "quiet" r.quiet @ rows "noisy" r.noisy);
  let n = r.noisy in
  Printf.printf
    "worst well-behaved p99 shift %.2f ms (ceiling %.1f); noisy sheds %d \
     (offender %d, unattributed %d); eve denied %d/%d, bindings %d; \
     deterministic: %b\n"
    (worst_shift r) max_p99_shift_ms n.shed_events n.shed_by_offender
    n.shed_unattributed n.eve_denied n.eve_probes n.eve_bindings r.deterministic
