(* Tests for the multi-tenant hardening layer: the Tenant registry's
   token buckets, deficit-round-robin fair queuing at budgeted objects,
   quota sheds typed [Quota_exceeded] and attributed to the charged
   tenant, policy denial on the binding path, and the E21 gate. The
   assertions are shape- not timing-shaped (ratios, attributions, error
   types), so the suite is swept across seeds by test/dune;
   LEGION_TRACE_SEED overrides the default. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Engine = Legion_sim.Engine
module Policy = Legion_sec.Policy
module Runtime = Legion_rt.Runtime
module Tenant = Legion_rt.Tenant
module Err = Legion_rt.Err
module Recorder = Legion_obs.Recorder
module Event = Legion_obs.Event
module System = Legion.System
module Api = Legion.Api
module Tenants = Legion.Tenants
module Std_parts = Legion_objects.Std_parts
module H = Helpers

let sweep_seed =
  match Sys.getenv_opt "LEGION_TRACE_SEED" with
  | Some s -> ( match Int64.of_string_opt s with Some v -> v | None -> 42L)
  | None -> 42L

let l i = Loid.make ~class_id:71L ~class_specific:(Int64.of_int i) ()

(* --- The registry itself: token buckets in virtual time. --- *)

let test_token_bucket () =
  let reg = Tenant.create () in
  let tn = Tenant.register reg ~name:"t" ~responsible:(l 1) ~rate:2.0 () in
  (* Burst defaults to a quarter second of rate, clamped to >= 1. *)
  Alcotest.(check bool) "one token at boot" true (Tenant.try_take tn ~now:0.0);
  Alcotest.(check bool) "bucket drained" false (Tenant.try_take tn ~now:0.0);
  let hint = Tenant.retry_hint tn ~now:0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "hint %.3f is about half a second" hint)
    true
    (hint > 0.0 && hint <= 0.5 +. 1e-9);
  Alcotest.(check bool) "still dry before the hint" false
    (Tenant.try_take tn ~now:(hint /. 2.0));
  Alcotest.(check bool) "refilled after the hint" true
    (Tenant.try_take tn ~now:(0.0 +. hint +. 1e-6));
  (* Unbudgeted tenants never shed. *)
  let free = Tenant.register reg ~name:"free" ~responsible:(l 2) () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "free tenant" true (Tenant.try_take free ~now:0.0)
  done;
  Alcotest.(check (float 1e-9)) "free hint" 0.0 (Tenant.retry_hint free ~now:0.0)

let test_registry_lookup () =
  let reg = Tenant.create () in
  let a = Tenant.register reg ~name:"a" ~responsible:(l 1) ~weight:3 () in
  let _b = Tenant.register reg ~name:"b" ~responsible:(l 2) () in
  Alcotest.(check (list string)) "registration order" [ "a"; "b" ]
    (Tenant.tenants reg);
  Alcotest.(check string) "by env" "a"
    (Tenant.name (Tenant.of_env reg (Legion_sec.Env.of_self (l 1))));
  Alcotest.(check string) "fallback" Tenant.fallback_name
    (Tenant.name (Tenant.of_env reg (Legion_sec.Env.of_self (l 99))));
  (* Re-registration under a new Responsible Agent keeps the row. *)
  Tenant.note_shed a;
  let a' = Tenant.register reg ~name:"a" ~responsible:(l 7) ~weight:3 () in
  Alcotest.(check int) "counters survive re-keying" 1 (Tenant.shed_count a');
  Alcotest.(check string) "new RA resolves" "a"
    (Tenant.name (Tenant.of_env reg (Legion_sec.Env.of_self (l 7))));
  (* The empty name keys the runtime's anonymous admission lane. *)
  Alcotest.check_raises "empty name"
    (Invalid_argument "Tenant.register: empty name") (fun () ->
      ignore (Tenant.register reg ~name:"" ~responsible:(l 8) ()))

(* --- A budgeted worker under two competing tenants. --- *)

let boot_worker ?(admission = { Runtime.max_inflight = 1; max_queue = 64;
                                retry_after_hint = 0.02 }) () =
  Std_parts.register_worker ();
  let sys =
    System.boot ~seed:sweep_seed
      ~rt_config:{ Runtime.default_config with admission = Some admission }
      ~sites:[ ("uva", 3) ] ()
  in
  let admin = System.client sys () in
  let cls =
    Api.derive_class_exn sys admin ~parent:Legion_core.Well_known.legion_object
      ~name:"TenantWorker" ~units:[ Std_parts.worker_unit ]
      ~idl:Std_parts.worker_idl ()
  in
  let worker = Api.create_object_exn sys admin ~cls ~eager:true () in
  (sys, admin, cls, worker)

let loid_of (c : Runtime.ctx) = Runtime.proc_loid c.Runtime.self

(* Weight-proportional service: both tenants dump a burst on a serial
   worker; after a fixed virtual window the weight-3 tenant must have
   completed decisively more calls, and eventually everyone completes —
   fair queuing reorders, it does not starve. *)
let test_drr_weighted_shares () =
  let sys, _admin, _cls, worker = boot_worker () in
  let rt = System.rt sys in
  let eng = System.sim sys in
  let heavy = System.client sys () and light = System.client sys () in
  let reg = Tenant.create () in
  ignore
    (Tenant.register reg ~name:"heavy" ~responsible:(loid_of heavy) ~weight:3 ());
  ignore
    (Tenant.register reg ~name:"light" ~responsible:(loid_of light) ~weight:1 ());
  Runtime.set_tenants rt (Some reg);
  (* Warm both callers' bindings first so the burst measures dispatch,
     not resolution. *)
  List.iter
    (fun c ->
      ignore
        (Api.call_exn sys c ~dst:worker ~meth:"Work"
           ~args:[ Value.Float 0.0 ]))
    [ heavy; light ];
  let ok_h = ref 0 and ok_l = ref 0 and failed = ref 0 in
  let burst ctx counter =
    for _ = 1 to 20 do
      Runtime.invoke ctx ~dst:worker ~meth:"Work"
        ~args:[ Value.Float 0.005 ]
        (fun r -> match r with Ok _ -> incr counter | Error _ -> incr failed)
    done
  in
  let t0 = Engine.now eng in
  ignore
    (Engine.schedule_at eng ~time:t0 (fun () ->
         burst heavy ok_h;
         burst light ok_l));
  System.run_for sys 0.11;
  Alcotest.(check int) "no failures mid-burst" 0 !failed;
  Alcotest.(check bool)
    (Printf.sprintf "weighted shares (heavy %d, light %d)" !ok_h !ok_l)
    true
    (!ok_h > 0 && !ok_l > 0 && !ok_h >= 2 * !ok_l);
  System.run_for sys 10.0;
  Alcotest.(check int) "heavy all served" 20 !ok_h;
  Alcotest.(check int) "light not starved" 20 !ok_l;
  Alcotest.(check int) "no sheds at 64-deep lanes" 0 !failed

(* A rate-budgeted tenant overdriving its bucket is shed with the typed
   retryable error, attributed in the event stream and the registry; an
   unbudgeted bystander is not. *)
let test_quota_shed_attributed () =
  let sys, _admin, _cls, worker = boot_worker () in
  let rt = System.rt sys in
  let greedy = System.client sys () and meek = System.client sys () in
  let reg = Tenant.create () in
  let tn_g =
    Tenant.register reg ~name:"greedy" ~responsible:(loid_of greedy)
      ~rate:1.0 ()
  in
  ignore (Tenant.register reg ~name:"meek" ~responsible:(loid_of meek) ());
  Runtime.set_tenants rt (Some reg);
  List.iter
    (fun c ->
      ignore
        (Api.call_exn sys c ~dst:worker ~meth:"Work"
           ~args:[ Value.Float 0.0 ]))
    [ greedy; meek ];
  let mark = Recorder.total (System.obs sys) in
  let quota = ref 0 and ok = ref 0 and other = ref 0 in
  let tally = function
    | Ok _ -> incr ok
    | Error (Err.Quota_exceeded { tenant; retry_after }) ->
        Alcotest.(check string) "shed names the tenant" "greedy" tenant;
        Alcotest.(check bool) "hint positive" true (retry_after > 0.0);
        incr quota
    | Error _ -> incr other
  in
  (* ~timeout selects single-attempt calls, so the shed surfaces to the
     caller instead of being absorbed by budget-aware retries. The burst
     fires two virtual seconds after the warmup call, so the bucket
     (capacity one token at rate 1/s) holds exactly one token again:
     one call is admitted, four are shed. *)
  let eng = System.sim sys in
  ignore
    (Engine.schedule_at eng ~time:(Engine.now eng +. 2.0) (fun () ->
         for _ = 1 to 5 do
           Runtime.invoke greedy ~timeout:10.0 ~dst:worker ~meth:"Work"
             ~args:[ Value.Float 0.001 ] tally
         done;
         Runtime.invoke meek ~timeout:10.0 ~dst:worker ~meth:"Work"
           ~args:[ Value.Float 0.001 ]
           (fun r ->
             match r with
             | Ok _ -> ()
             | Error e ->
                 Alcotest.failf "bystander failed: %s" (Err.to_string e))));
  System.run_for sys 7.0;
  Alcotest.(check int) "no other errors" 0 !other;
  Alcotest.(check bool)
    (Printf.sprintf "bucket admitted %d, shed %d" !ok !quota)
    true
    (!ok >= 1 && !quota >= 1 && !ok + !quota = 5);
  Alcotest.(check int) "registry attribution" !quota (Tenant.shed_count tn_g);
  Alcotest.(check bool) "registry admits" true (Tenant.admitted tn_g >= 1);
  let evs = Recorder.events_since (System.obs sys) mark in
  let sheds_tagged =
    List.length
      (List.filter
         (fun (ev : Event.t) ->
           match ev.Event.kind with
           | Event.Shed { tenant = Some "greedy"; _ } -> true
           | _ -> false)
         evs)
  in
  Alcotest.(check int) "every shed event tagged greedy" !quota sheds_tagged

(* --- Policy on the binding path. --- *)

(* A class whose binding policy excludes a principal answers that
   principal's resolutions with the terminal [Denied] — it never hands
   out a binding — and emits a tenant-tagged [Deny] event. The owner,
   whose Responsible Agent the policy clears, is untouched. *)
let test_deny_at_get_binding () =
  let sys, admin, cls, worker = boot_worker () in
  let rt = System.rt sys in
  let stranger = System.client sys () in
  let reg = Tenant.create () in
  ignore
    (Tenant.register reg ~name:"eve" ~responsible:(loid_of stranger) ());
  Runtime.set_tenants rt (Some reg);
  ignore
    (Api.call_exn sys admin ~dst:cls ~meth:"SetBindingPolicy"
       ~args:
         [
           Policy.to_value
             (Policy.Allow_responsible (Loid.Set.of_list [ loid_of admin ]));
         ]);
  let mark = Recorder.total (System.obs sys) in
  (* The stranger's resolution dies at the class: typed, attributed,
     and no binding ever reaches her cache. *)
  (match Api.call sys stranger ~dst:worker ~meth:"Work" ~args:[ Value.Float 0.0 ] with
  | Error (Err.Denied { tenant; reason }) ->
      Alcotest.(check string) "denial names the tenant" "eve" tenant;
      Alcotest.(check bool) "reason given" true (String.length reason > 0)
  | Ok _ -> Alcotest.fail "stranger resolved a binding through the policy"
  | Error e -> Alcotest.failf "expected Denied, got %s" (Err.to_string e));
  let denies =
    List.filter
      (fun (ev : Event.t) ->
        match ev.Event.kind with Event.Deny _ -> true | _ -> false)
      (Recorder.events_since (System.obs sys) mark)
  in
  Alcotest.(check bool) "a Deny event was emitted" true (denies <> []);
  List.iter
    (fun (ev : Event.t) ->
      match ev.Event.kind with
      | Event.Deny { tenant; meth; _ } ->
          Alcotest.(check string) "event tenant" "eve" tenant;
          Alcotest.(check string) "event method" "GetBinding" meth
      | _ -> ())
    denies;
  (* The cleared owner still resolves and calls. *)
  ignore (Api.call_exn sys admin ~dst:worker ~meth:"Work" ~args:[ Value.Float 0.0 ]);
  (* The stranger cannot lift the policy either: SetBindingPolicy is
     gated by the policy being replaced. *)
  match
    Api.call sys stranger ~dst:cls ~meth:"SetBindingPolicy"
      ~args:[ Policy.to_value Policy.Allow_all ]
  with
  | Error (Err.Denied _) -> ()
  | Ok _ -> Alcotest.fail "stranger replaced the binding policy"
  | Error e -> Alcotest.failf "expected Denied, got %s" (Err.to_string e)

(* Without a tenant registry armed, enforcement still works and the
   denial is attributed to the fallback lane. *)
let test_deny_without_registry () =
  let sys, admin, cls, worker = boot_worker () in
  let stranger = System.client sys () in
  ignore
    (Api.call_exn sys admin ~dst:cls ~meth:"SetBindingPolicy"
       ~args:
         [
           Policy.to_value
             (Policy.Allow_responsible (Loid.Set.of_list [ loid_of admin ]));
         ]);
  match Api.call sys stranger ~dst:worker ~meth:"Work" ~args:[ Value.Float 0.0 ] with
  | Error (Err.Denied { tenant; _ }) ->
      Alcotest.(check string) "fallback attribution" Tenant.fallback_name tenant
  | Ok _ -> Alcotest.fail "stranger resolved a binding"
  | Error e -> Alcotest.failf "expected Denied, got %s" (Err.to_string e)

(* --- The E21 gate. --- *)

let test_scenario_deterministic_and_gated () =
  Alcotest.(check (list string))
    "no E21 violations" []
    (Tenants.violations (Tenants.run { Tenants.seed = sweep_seed }))

let () =
  Alcotest.run "tenants"
    [
      ( "registry",
        [
          Alcotest.test_case "token bucket in virtual time" `Quick
            test_token_bucket;
          Alcotest.test_case "lookup, fallback, re-keying" `Quick
            test_registry_lookup;
        ] );
      ( "fair-queuing",
        [
          Alcotest.test_case "weighted DRR shares" `Quick
            test_drr_weighted_shares;
          Alcotest.test_case "quota sheds typed and attributed" `Quick
            test_quota_shed_attributed;
        ] );
      ( "binding-policy",
        [
          Alcotest.test_case "denied at GetBinding" `Quick
            test_deny_at_get_binding;
          Alcotest.test_case "fallback attribution without registry" `Quick
            test_deny_without_registry;
        ] );
      ( "e21",
        [
          Alcotest.test_case "deterministic and gated" `Quick
            test_scenario_deterministic_and_gated;
        ] );
    ]
