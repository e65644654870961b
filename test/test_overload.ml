(* Overload robustness: admission budgets (Admit/Shed, [Err.Overloaded]
   with a retry_after hint), backpressure-aware retry, per-destination
   circuit breakers (Closed -> Open -> HalfOpen -> Closed, trace-
   asserted), policy shedding in the class (creates before lookups) and
   graceful degradation in the Binding Agent (serving a stale-but-valid
   cached binding instead of forwarding to an overloaded class). *)

module Network = Legion_net.Network
module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Binding = Legion_naming.Binding
module Runtime = Legion_rt.Runtime
module Retry = Legion_rt.Retry
module Breaker = Legion_rt.Breaker
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module System = Legion.System
module Api = Legion.Api
open Helpers

let seed =
  match Sys.getenv_opt "LEGION_TRACE_SEED" with
  | Some s -> Int64.of_string s
  | None -> 42L

let assert_holds m events =
  match Trace.explain m events with
  | None -> ()
  | Some msg ->
      Alcotest.failf "trace mismatch: %s\ntrace was:\n%s" msg
        (String.concat "\n"
           (List.map (fun e -> Format.asprintf "  %a" Event.pp e) events))

(* --- Err.Overloaded shape --- *)

let test_overloaded_error () =
  let e = Err.Overloaded { retry_after = 0.25 } in
  Alcotest.(check bool) "is_overload" true (Err.is_overload e);
  Alcotest.(check bool) "retryable, not a delivery failure" false
    (Err.is_delivery_failure e);
  Alcotest.(check (option (float 1e-9))) "hint" (Some 0.25) (Err.retry_after e);
  (match Err.of_value (Err.to_value e) with
  | Ok e' -> Alcotest.(check bool) "wire roundtrip" true (Err.equal e e')
  | Error m -> Alcotest.failf "decode failed: %s" m);
  Alcotest.(check (option (float 1e-9))) "others carry no hint" None
    (Err.retry_after Err.Timeout)

(* --- Retry.backoff_window honours the larger of hint and window --- *)

let test_backoff_window () =
  let prng = Legion_util.Prng.create ~seed:3L in
  let policy =
    { Retry.max_attempts = 5; attempt_timeout = 0.3; multiplier = 2.0; jitter = 0.0 }
  in
  Alcotest.(check (float 1e-9)) "hint dominates" 10.0
    (Retry.backoff_window policy ~attempt:1 ~retry_after:10.0 ~prng);
  Alcotest.(check (float 1e-9)) "window dominates" 0.6
    (Retry.backoff_window policy ~attempt:2 ~retry_after:0.01 ~prng)

(* --- Breaker state machine (unit) --- *)

let test_breaker_state_machine () =
  let b =
    Breaker.create
      { Breaker.failure_threshold = 3; cooldown = 1.0; shed_cooldown = 0.1 }
  in
  let host = 7 in
  Alcotest.(check string) "starts closed" "closed" (Breaker.phase_name b host);
  Alcotest.(check bool) "closed allows" true
    (Breaker.before_send b ~now:0.0 host = Breaker.Allow);
  (* Two failures: still closed. *)
  (match Breaker.record b ~now:0.1 host Breaker.Transport_failure with
  | None -> ()
  | Some _ -> Alcotest.fail "tripped early");
  ignore (Breaker.record b ~now:0.2 host Breaker.Transport_failure);
  Alcotest.(check string) "still closed" "closed" (Breaker.phase_name b host);
  (* Third consecutive failure trips it. *)
  (match Breaker.record b ~now:0.3 host Breaker.Transport_failure with
  | Some (Breaker.Opened { failures }) ->
      Alcotest.(check int) "threshold failures" 3 failures
  | _ -> Alcotest.fail "expected Opened");
  Alcotest.(check string) "open" "open" (Breaker.phase_name b host);
  (* While open: fail fast with Unreachable (a dead circuit), a
     delivery failure so callers rebind. *)
  (match Breaker.before_send b ~now:0.5 host with
  | Breaker.Reject { error; retry_after } ->
      Alcotest.(check bool) "delivery failure" true
        (Err.is_delivery_failure error);
      Alcotest.(check bool) "retry_after positive" true (retry_after > 0.0)
  | _ -> Alcotest.fail "expected Reject while open");
  (* Cooldown elapsed: one probe, circuit is HalfOpen. *)
  (match Breaker.before_send b ~now:1.4 host with
  | Breaker.Probe -> ()
  | _ -> Alcotest.fail "expected Probe after cooldown");
  Alcotest.(check string) "half-open" "half-open" (Breaker.phase_name b host);
  (* A second send during the probe is rejected. *)
  (match Breaker.before_send b ~now:1.41 host with
  | Breaker.Reject _ -> ()
  | _ -> Alcotest.fail "expected Reject during probe");
  (* The probe succeeds: closed again. *)
  (match Breaker.record b ~now:1.5 host Breaker.Success with
  | Some Breaker.Closed_circuit -> ()
  | _ -> Alcotest.fail "expected Closed_circuit");
  Alcotest.(check string) "closed again" "closed" (Breaker.phase_name b host)

let test_breaker_saturated_rejections () =
  let b =
    Breaker.create
      { Breaker.failure_threshold = 2; cooldown = 5.0; shed_cooldown = 0.2 }
  in
  let host = 3 in
  ignore (Breaker.record b ~now:0.0 host (Breaker.Saturated 0.4));
  (match Breaker.record b ~now:0.1 host (Breaker.Saturated 0.4) with
  | Some (Breaker.Opened _) -> ()
  | _ -> Alcotest.fail "expected Opened");
  (* A saturation-class circuit rejects with Overloaded — retryable,
     binding still good — and honours the destination's hint as the
     cooldown floor, not the dead-host cooldown. *)
  match Breaker.before_send b ~now:0.1 host with
  | Breaker.Reject { error; retry_after } ->
      Alcotest.(check bool) "overload rejection" true (Err.is_overload error);
      Alcotest.(check bool) "cooldown from hint" true
        (retry_after <= 0.4 +. 1e-9)
  | _ -> Alcotest.fail "expected Reject"

(* --- the serial counter: deferred replies make budgets visible --- *)

let slow_service = 0.2

let boot_slow ?rt_config () =
  Legion_objects.Std_parts.register_serial_counter ~service:slow_service;
  let sys = boot_two_sites ~seed ?rt_config () in
  let ctx = System.client sys () in
  let cls =
    Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
      ~name:"SlowCounter" ~units:[ Legion_objects.Std_parts.serial_counter_unit ]
      ~idl:"interface SlowCounter { Increment(d: int): int; }" ()
  in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  (match Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warm call failed: %s" (Err.to_string e));
  (sys, ctx, cls, obj)

(* --- admission: Admit / queue / Shed, Overloaded surfaced --- *)

let test_admission_budget () =
  let sys, ctx, _cls, obj = boot_slow () in
  let rt = System.rt sys and obs = System.obs sys in
  let proc =
    match Runtime.find_proc rt obj with
    | Some p -> p
    | None -> Alcotest.fail "no proc for object"
  in
  Runtime.set_admission proc
    (Some { Runtime.max_inflight = 1; max_queue = 1; retry_after_hint = 0.05 });
  let mark = Recorder.total obs in
  let sheds0 = Runtime.total_sheds rt in
  (* Three single-attempt calls in one burst against a budget of
     1 inflight + 1 queued: the third must be shed with the hint. *)
  let results = Array.make 3 None in
  for i = 0 to 2 do
    Runtime.invoke ctx ~timeout:2.0 ~max_rebinds:0 ~dst:obj ~meth:"Increment"
      ~args:[ Value.Int 1 ] (fun r -> results.(i) <- Some r)
  done;
  System.run sys;
  let oks, overloads =
    Array.fold_left
      (fun (ok, ov) r ->
        match r with
        | Some (Ok _) -> (ok + 1, ov)
        | Some (Error e) when Err.is_overload e ->
            (match Err.retry_after e with
            | Some ra -> Alcotest.(check bool) "hint positive" true (ra > 0.0)
            | None -> Alcotest.fail "Overloaded without hint");
            (ok, ov + 1)
        | Some (Error e) -> Alcotest.failf "unexpected error: %s" (Err.to_string e)
        | None -> Alcotest.fail "call never completed")
      (0, 0) results
  in
  Alcotest.(check int) "two admitted" 2 oks;
  Alcotest.(check int) "one shed" 1 overloads;
  Alcotest.(check int) "shed counted" (sheds0 + 1) (Runtime.total_sheds rt);
  let events = Recorder.events_since obs mark in
  assert_holds
    Trace.(
      seq
        [
          matches ~label:"first call admitted straight in"
            (admit ~loid:obj ~queued:false ());
          matches ~label:"overflow call shed"
            (shed ~loid:obj ~meth:"Increment" ());
          matches ~label:"queued call admitted as the slot frees"
            (admit ~loid:obj ~queued:true ());
        ])
    events;
  Alcotest.(check int) "inflight drained" 0 (Runtime.inflight proc);
  Alcotest.(check int) "queue drained" 0 (Runtime.queued_calls proc);
  Alcotest.(check (float 1e-9)) "idle load factor" 0.0
    (Runtime.load_factor proc)

(* --- the anonymous lane keeps the FIFO contract (QCheck model) --- *)

(* A random interleaving at an untenanted budgeted object: a call
   arrives, or the [k]th held call replies. The model is the plain FIFO
   wait queue: a call starts at once while fewer than [max_inflight]
   run, parks while fewer than [max_queue] wait, and is shed otherwise;
   each reply starts the oldest parked call. *)
type lane_op = Arrive | Reply of int

let lane_ops =
  let open QCheck in
  let op =
    Gen.(
      frequency [ (3, return Arrive); (2, map (fun k -> Reply k) (int_bound 7)) ])
  in
  let print_op = function Arrive -> "A" | Reply k -> Printf.sprintf "R%d" k in
  make
    ~print:(fun (i, q, ops) ->
      Printf.sprintf "max_inflight %d, max_queue %d: %s" i q
        (String.concat " " (List.map print_op ops)))
    ~shrink:(fun (i, q, ops) ->
      Iter.map (fun ops -> (i, q, ops)) (Shrink.list ops))
    Gen.(triple (1 -- 3) (1 -- 4) (list_size (1 -- 40) op))

let anonymous_lane_prop =
  QCheck.Test.make ~count:200
    ~name:"anonymous lane: arrival order, inflight bound, shed exactly when full"
    lane_ops
    (fun (max_inflight, max_queue, ops) ->
      let module Engine = Legion_sim.Engine in
      let module Prng = Legion_util.Prng in
      let sim = Engine.create () in
      let prng = Prng.create ~seed:5L in
      let net = Network.create ~sim ~prng:(Prng.split prng) () in
      let site = Network.add_site net ~name:"s" in
      let h0 = Network.add_host net ~site ~name:"h0" in
      let h1 = Network.add_host net ~site ~name:"h1" in
      let rt =
        Runtime.create ~sim ~net
          ~registry:(Legion_util.Counter.Registry.create ())
          ~prng:(Prng.split prng) ()
      in
      let mk i = Loid.make ~class_id:60L ~class_specific:(Int64.of_int i) () in
      let started = ref [] and held = ref [] in
      let server =
        Runtime.spawn rt ~host:h1 ~loid:(mk 1) ~kind:"app"
          ~admission:
            (Some { Runtime.max_inflight; max_queue; retry_after_hint = 0.05 })
          ~handler:(fun _ call k ->
            match call.Runtime.args with
            | [ Value.Int id ] ->
                started := id :: !started;
                held := !held @ [ k ]
            | _ -> k (Error (Err.Bad_args "want an id")))
          ()
      in
      let client =
        Runtime.spawn rt ~host:h0 ~loid:(mk 2) ~kind:"client"
          ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
          ()
      in
      let ctx = { Runtime.rt; self = client } in
      let shed = ref [] in
      let m_inflight = ref 0 and m_parked = Queue.create () in
      let m_started = ref [] and m_shed = ref [] in
      let next = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Arrive ->
              let id = !next in
              incr next;
              (* A caller-managed deadline means one attempt: a shed
                 comes back to us instead of being retried. *)
              Runtime.invoke_address ctx ~timeout:1000.0
                ~address:(Runtime.address_of server) ~dst:(mk 1) ~meth:"Work"
                ~args:[ Value.Int id ] ~env:(Legion_sec.Env.of_self (mk 2))
                (function
                  | Error e when Err.is_overload e -> shed := id :: !shed
                  | _ -> ());
              if !m_inflight < max_inflight then begin
                incr m_inflight;
                m_started := id :: !m_started
              end
              else if Queue.length m_parked < max_queue then
                Queue.add id m_parked
              else m_shed := id :: !m_shed
          | Reply k -> (
              match !held with
              | [] -> ()
              | calls ->
                  let i = k mod List.length calls in
                  held := List.filteri (fun j _ -> j <> i) calls;
                  List.nth calls i (Ok Value.Unit);
                  decr m_inflight;
                  if not (Queue.is_empty m_parked) then begin
                    incr m_inflight;
                    m_started := Queue.pop m_parked :: !m_started
                  end));
          (* Let the arrival, the shed reply or the freed slot's
             dispatch land before the next step. *)
          Engine.run ~until:(Engine.now sim +. 0.1) sim;
          !started = !m_started
          && List.length !held <= max_inflight
          && Runtime.inflight server <= max_inflight
          && Runtime.queued_calls server = Queue.length m_parked
          && !shed = !m_shed)
        ops)

(* --- backpressure-aware retry: shed calls come back and succeed --- *)

let test_overloaded_retry () =
  let sys, ctx, _cls, obj = boot_slow () in
  let rt = System.rt sys and obs = System.obs sys in
  let proc =
    match Runtime.find_proc rt obj with
    | Some p -> p
    | None -> Alcotest.fail "no proc for object"
  in
  Runtime.set_admission proc
    (Some { Runtime.max_inflight = 1; max_queue = 1; retry_after_hint = 0.05 });
  let mark = Recorder.total obs in
  (* Same burst, but under the default retransmission policy: the shed
     call must back off by at least the hint and land once the queue
     drains — every caller ends Ok. *)
  let results = Array.make 3 None in
  for i = 0 to 2 do
    Runtime.invoke ctx ~max_rebinds:0 ~dst:obj ~meth:"Increment"
      ~args:[ Value.Int 1 ] (fun r -> results.(i) <- Some r)
  done;
  System.run sys;
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok _) -> ()
      | Some (Error e) ->
          Alcotest.failf "call %d failed: %s" i (Err.to_string e)
      | None -> Alcotest.failf "call %d never completed" i)
    results;
  let events = Recorder.events_since obs mark in
  Alcotest.(check bool) "the burst was shed at least once" true
    (Trace.count_of (Trace.shed ~loid:obj ()) events >= 1)

(* --- circuit breaker through the runtime: Open -> Probe -> Close --- *)

let test_breaker_trace () =
  let sys, ctx, _cls, obj =
    boot_slow
      ~rt_config:
        {
          Runtime.default_config with
          breaker =
            Some
              {
                Breaker.failure_threshold = 3;
                cooldown = 1.0;
                shed_cooldown = 0.1;
              };
        }
      ()
  in
  let rt = System.rt sys
  and obs = System.obs sys
  and net = System.net sys in
  let victim =
    match Runtime.find_proc rt obj with
    | Some p -> Runtime.proc_host p
    | None -> Alcotest.fail "no proc for object"
  in
  let mark = Recorder.total obs in
  Network.set_host_up net victim false;
  (* Three calls time out against the dark host; the third consecutive
     transport failure opens the circuit. *)
  for _ = 1 to 3 do
    let result = ref None in
    Runtime.invoke ctx ~max_rebinds:0 ~dst:obj ~meth:"Increment"
      ~args:[ Value.Int 1 ] (fun r -> result := Some r);
    System.run sys;
    match !result with
    | Some (Error Err.Timeout) -> ()
    | Some (Ok _) -> Alcotest.fail "call to a dark host succeeded"
    | Some (Error e) -> Alcotest.failf "expected timeout: %s" (Err.to_string e)
    | None -> Alcotest.fail "call never completed"
  done;
  (* The host comes back; the next call parks behind the open circuit,
     goes out as the HalfOpen probe after the cooldown, and its success
     closes the circuit. *)
  Network.set_host_up net victim true;
  let result = ref None in
  Runtime.invoke ctx ~max_rebinds:0 ~dst:obj ~meth:"Increment"
    ~args:[ Value.Int 1 ] (fun r -> result := Some r);
  System.run sys;
  (match !result with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "probe call failed: %s" (Err.to_string e)
  | None -> Alcotest.fail "probe call never completed");
  let events = Recorder.events_since obs mark in
  assert_holds
    Trace.(
      seq
        [
          matches ~label:"circuit opens after threshold failures"
            (breaker_open ~host:victim ());
          matches ~label:"half-open probe after the cooldown"
            (breaker_probe ~host:victim ());
          matches ~label:"probe success closes the circuit"
            (breaker_close ~host:victim ());
        ])
    events;
  Alcotest.(check string) "circuit closed at the end" "closed"
    (match Runtime.breaker_phase rt victim with
    | Some p -> p
    | None -> "breakers-off")

(* --- the class sheds creates before lookups --- *)

let test_class_sheds_creates () =
  let sys = boot_two_sites ~seed () in
  let ctx = System.client sys () in
  let cls = make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  ignore (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]);
  let rt = System.rt sys and obs = System.obs sys in
  let class_proc =
    match Runtime.find_proc rt cls with
    | Some p -> p
    | None -> Alcotest.fail "no proc for class"
  in
  (* Budget 1+1: any delivered call sees load_factor 0.5, the policy
     threshold, so creates shed while lookups keep being served. *)
  Runtime.set_admission class_proc
    (Some { Runtime.max_inflight = 1; max_queue = 1; retry_after_hint = 0.05 });
  let mark = Recorder.total obs in
  (match
     Api.sync sys (fun k ->
         Runtime.invoke ctx ~timeout:5.0 ~max_rebinds:0 ~dst:cls ~meth:"Create"
           ~args:[ Value.Record []; Value.Record [] ] k)
   with
  | Error e when Err.is_overload e -> ()
  | Ok _ -> Alcotest.fail "Create was served under load"
  | Error e -> Alcotest.failf "expected Overloaded: %s" (Err.to_string e));
  (match
     Api.sync sys (fun k ->
         Runtime.invoke ctx ~timeout:5.0 ~max_rebinds:0 ~dst:cls
           ~meth:"GetBinding" ~args:[ Loid.to_value obj ] k)
   with
  | Ok v -> (
      match Binding.of_value v with
      | Ok b ->
          Alcotest.(check bool) "lookup still serves the object" true
            (Loid.equal (Binding.loid b) obj)
      | Error m -> Alcotest.failf "bad binding: %s" m)
  | Error e -> Alcotest.failf "GetBinding shed under load: %s" (Err.to_string e));
  let events = Recorder.events_since obs mark in
  Alcotest.(check bool) "Create shed by policy" true
    (Trace.count_of (Trace.shed ~loid:cls ~meth:"Create" ()) events >= 1)

(* --- the Binding Agent serves stale under an overloaded class --- *)

let test_agent_serves_stale_under_shed () =
  let sys = boot_two_sites ~seed () in
  let ctx = System.client sys () in
  let cls = make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  ignore (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]);
  let rt = System.rt sys and obs = System.obs sys in
  let agent = (List.nth (System.sites sys) 0).System.agent in
  (* A known-good binding for the object, then an overloaded class. *)
  let stale_v =
    match
      Api.sync sys (fun k ->
          Runtime.invoke ctx ~timeout:5.0 ~max_rebinds:0 ~dst:cls
            ~meth:"GetBinding" ~args:[ Loid.to_value obj ] k)
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "seed lookup failed: %s" (Err.to_string e)
  in
  let class_proc =
    match Runtime.find_proc rt cls with
    | Some p -> p
    | None -> Alcotest.fail "no proc for class"
  in
  Runtime.set_admission class_proc
    (Some { Runtime.max_inflight = 0; max_queue = 0; retry_after_hint = 0.1 });
  let mark = Recorder.total obs in
  (* A refresh request (GetBinding with the stale binding) now cannot
     reach the class — the agent must degrade gracefully and serve the
     stale-but-unexpired binding instead of surfacing the shed. *)
  (match
     Api.sync sys (fun k ->
         Runtime.invoke ctx ~timeout:60.0 ~max_rebinds:0 ~dst:agent
           ~meth:"GetBinding" ~args:[ stale_v ] k)
   with
  | Ok v -> (
      match (Binding.of_value v, Binding.of_value stale_v) with
      | Ok served, Ok stale ->
          Alcotest.(check bool) "served the stale binding" true
            (Binding.equal served stale)
      | _ -> Alcotest.fail "bad binding value")
  | Error e ->
      Alcotest.failf "agent surfaced the shed instead of degrading: %s"
        (Err.to_string e));
  let events = Recorder.events_since obs mark in
  Alcotest.(check bool) "StaleServe traced" true
    (Trace.count_of (Trace.stale_serve ~target:obj ()) events >= 1);
  Alcotest.(check bool) "the class did shed the refresh" true
    (Trace.count_of (Trace.shed ~loid:cls ()) events >= 1)

let () =
  Alcotest.run "overload"
    [
      ( "errors",
        [
          Alcotest.test_case "Overloaded shape" `Quick test_overloaded_error;
          Alcotest.test_case "backoff window" `Quick test_backoff_window;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "saturated rejections" `Quick
            test_breaker_saturated_rejections;
          Alcotest.test_case "open, probe, close (traced)" `Quick
            test_breaker_trace;
        ] );
      ( "admission",
        [
          Alcotest.test_case "admit, queue, shed" `Quick test_admission_budget;
          Alcotest.test_case "shed calls retry and succeed" `Quick
            test_overloaded_retry;
          QCheck_alcotest.to_alcotest anonymous_lane_prop;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "class sheds creates before lookups" `Quick
            test_class_sheds_creates;
          Alcotest.test_case "agent serves stale under shed" `Quick
            test_agent_serves_stale_under_shed;
        ] );
    ]
