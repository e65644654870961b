(* Tests for the fault-tolerant invocation layer: retry/backoff under
   message loss, give-up on exhausted budgets, loser cancellation in
   replica races, and prompt failure of in-flight calls on host crash.
   Assertions are made against the structured event trace (Legion_obs),
   in the same style as test_trace.ml. *)

module Engine = Legion_sim.Engine
module Script = Legion_sim.Script
module Network = Legion_net.Network
module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Retry = Legion_rt.Retry
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace

let loid i = Loid.make ~class_id:60L ~class_specific:(Int64.of_int i) ()

type fixture = {
  sim : Engine.t;
  rt : Runtime.t;
  net : Runtime.incoming Network.t;
  obs : Recorder.t;
  hosts : int list;
}

let make_fixture ?(seed = 11L) ?config ?(hosts_per_site = 2) ?(sites = 2) () =
  let sim = Engine.create () in
  let prng = Prng.create ~seed in
  let registry = Counter.Registry.create () in
  let obs = Recorder.create ~clock:(fun () -> Engine.now sim) () in
  let net = Network.create ~sim ~prng:(Prng.split prng) ~obs () in
  let hosts =
    List.concat_map
      (fun s ->
        let sid = Network.add_site net ~name:(Printf.sprintf "s%d" s) in
        List.init hosts_per_site (fun i ->
            Network.add_host net ~site:sid ~name:(Printf.sprintf "s%d-h%d" s i)))
      (List.init sites (fun s -> s))
  in
  let rt =
    Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) ?config ~obs ()
  in
  { sim; rt; net; obs; hosts }

let echo_handler : Runtime.handler =
 fun _ctx call k ->
  match call.Runtime.meth with
  | "Echo" -> k (Ok (Value.List call.Runtime.args))
  | "Silent" -> ()
  | m -> k (Error (Err.No_such_method m))

let spawn f ~host ~id ~kind = Runtime.spawn f.rt ~host ~loid:(loid id) ~kind ~handler:echo_handler ()

let client_ctx f ~host ~id =
  let p =
    Runtime.spawn f.rt ~host ~loid:(loid id) ~kind:"client"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  { Runtime.rt = f.rt; self = p }

(* Start the call, then run the engine to quiescence so retransmit
   timers, late duplicates and cancellations all settle before we
   inspect the trace. *)
let sync f start =
  let r = ref None in
  start (fun x -> r := Some (x, Engine.now f.sim));
  Engine.run f.sim;
  match !r with Some x -> x | None -> Alcotest.fail "no reply before quiescence"

let invoke_direct ctx ~dst_proc ~meth ~args k =
  Runtime.invoke_address ctx
    ~address:(Runtime.address_of dst_proc)
    ~dst:(Runtime.proc_loid dst_proc) ~meth ~args
    ~env:(Env.of_self (Runtime.proc_loid ctx.Runtime.self))
    k

let assert_holds m events =
  match Trace.explain m events with
  | None -> ()
  | Some msg -> Alcotest.failf "trace assertion failed: %s" msg

let retry_times events =
  List.filter_map
    (fun e ->
      match e.Event.kind with Event.Retry _ -> Some e.Event.time | _ -> None)
    events

(* --- retry recovers a dropped call --- *)

let test_retry_recovers_lost_call () =
  let f = make_fixture () in
  let server = spawn f ~host:(List.nth f.hosts 1) ~id:1 ~kind:"app" in
  let ctx = client_ctx f ~host:(List.hd f.hosts) ~id:2 in
  (* Black out the network for the first two attempts (t=0 and ~0.3),
     then heal it so the third transmission gets through. *)
  Network.set_drop_rate f.net 1.0;
  Script.at f.sim ~time:0.5 (fun () -> Network.set_drop_rate f.net 0.0);
  let reply, _t =
    sync f (fun k ->
        invoke_direct ctx ~dst_proc:server ~meth:"Echo" ~args:[ Value.Int 7 ] k)
  in
  (match reply with
  | Ok (Value.List [ Value.Int 7 ]) -> ()
  | Ok v -> Alcotest.failf "bad echo: %s" (Value.to_string v)
  | Error e -> Alcotest.failf "call failed despite retries: %s" (Err.to_string e));
  let events = Recorder.events f.obs in
  assert_holds
    Trace.(
      seq
        [
          matches ~label:"first attempt" (call ~meth:"Echo" ());
          matches ~label:"first drop" (drop ~reason:Event.Random_loss ());
          matches ~label:"retransmission" (retry ~attempt:2 ());
          matches ~label:"eventual reply" (reply ~ok:true ());
        ])
    events;
  (* Exponential backoff: the gap between consecutive transmissions
     grows (jitter is only ±10%, far below the 2x growth). *)
  let first_call_time =
    match Trace.find (Trace.call ~meth:"Echo" ()) events with
    | Some e -> e.Event.time
    | None -> Alcotest.fail "no Call event"
  in
  let gaps =
    let rec diffs prev = function
      | [] -> []
      | t :: rest -> (t -. prev) :: diffs t rest
    in
    diffs first_call_time (retry_times events)
  in
  Alcotest.(check bool) "at least two retransmissions" true (List.length gaps >= 2);
  let rec ascending = function
    | a :: b :: rest -> a < b && ascending (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "gaps grow" true (ascending gaps);
  (* The call recovered: no give-up, no timeout, and the recovery
     latency histogram saw the exchange. *)
  Alcotest.(check int) "no Giveup" 0 (Trace.count_of (Trace.giveup ()) events);
  Alcotest.(check int) "no Timeout" 0 (Trace.count_of (Trace.timeout ()) events);
  match Recorder.latency f.obs ~component:"rt.recovery" with
  | Some h ->
      Alcotest.(check bool) "recovery sample recorded" true
        (Legion_util.Stats.Histogram.total h >= 1)
  | None -> Alcotest.fail "no rt.recovery histogram"

(* --- exhausted budget gives up --- *)

let test_exhausted_budget_gives_up () =
  let retry =
    { Retry.max_attempts = 3; attempt_timeout = 0.2; multiplier = 2.0; jitter = 0.0 }
  in
  let f =
    make_fixture
      ~config:{ Runtime.default_config with call_timeout = 1.0; retry }
      ()
  in
  let server = spawn f ~host:(List.nth f.hosts 1) ~id:1 ~kind:"app" in
  let ctx = client_ctx f ~host:(List.hd f.hosts) ~id:2 in
  Network.set_drop_rate f.net 1.0;
  let reply, t_done =
    sync f (fun k ->
        invoke_direct ctx ~dst_proc:server ~meth:"Echo" ~args:[] k)
  in
  (match reply with
  | Error Err.Timeout -> ()
  | r ->
      Alcotest.failf "expected timeout, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e));
  (* Attempts at 0, 0.2, 0.6; the third window (0.8) is clamped to the
     overall 1.0 s budget, so the call dies at the deadline — not at
     0.2+0.4+0.8 = 1.4. *)
  Alcotest.(check (float 1e-6)) "gave up at the overall deadline" 1.0 t_done;
  let events = Recorder.events f.obs in
  Alcotest.(check int) "three transmissions" 3
    (Trace.count_of (Trace.call ~meth:"Echo" ()) events);
  assert_holds
    Trace.(
      seq
        [
          matches ~label:"attempt 2" (retry ~attempt:2 ());
          matches ~label:"attempt 3" (retry ~attempt:3 ());
          matches ~label:"deadline" (timeout ());
          matches ~label:"give up" (giveup ());
        ])
    events;
  match Trace.find (Trace.giveup ()) events with
  | Some { Event.kind = Event.Giveup { attempts; _ }; _ } ->
      Alcotest.(check int) "give-up reports all transmissions" 3 attempts
  | _ -> Alcotest.fail "no Giveup event"

(* --- an explicit timeout stays a single attempt --- *)

let test_explicit_timeout_single_attempt () =
  let f = make_fixture () in
  let server = spawn f ~host:(List.nth f.hosts 1) ~id:1 ~kind:"app" in
  let ctx = client_ctx f ~host:(List.hd f.hosts) ~id:2 in
  Network.set_drop_rate f.net 1.0;
  let reply, t_done =
    sync f (fun k ->
        Runtime.invoke_address ctx ~timeout:0.8
          ~address:(Runtime.address_of server)
          ~dst:(Runtime.proc_loid server) ~meth:"Echo" ~args:[]
          ~env:(Env.of_self (Runtime.proc_loid ctx.Runtime.self))
          k)
  in
  (match reply with
  | Error Err.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout");
  Alcotest.(check (float 1e-6)) "full caller-managed deadline" 0.8 t_done;
  let events = Recorder.events f.obs in
  Alcotest.(check int) "exactly one transmission" 1
    (Trace.count_of (Trace.call ~meth:"Echo" ()) events);
  Alcotest.(check int) "no Retry" 0 (Trace.count_of (Trace.retry ()) events);
  (* A deliberate single attempt is a Timeout, not a retry give-up. *)
  Alcotest.(check int) "no Giveup" 0 (Trace.count_of (Trace.giveup ()) events)

(* --- a race winner cancels the losers --- *)

let test_race_winner_cancels_losers () =
  let f = make_fixture () in
  let shared = loid 9 in
  let fast =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 1) ~loid:shared ~kind:"app"
      ~handler:echo_handler ()
  in
  let silent =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 2) ~loid:shared ~kind:"app"
      ~handler:(fun _ _ _ -> ()) ()
  in
  let ctx = client_ctx f ~host:(List.hd f.hosts) ~id:2 in
  let address =
    Address.make ~semantic:Address.All
      [ Runtime.element_of fast; Runtime.element_of silent ]
  in
  let reply, _t =
    sync f (fun k ->
        Runtime.invoke_address ctx ~address ~dst:shared ~meth:"Echo"
          ~args:[ Value.Int 1 ]
          ~env:(Env.of_self (Runtime.proc_loid ctx.Runtime.self))
          k)
  in
  (match reply with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "race failed: %s" (Err.to_string e));
  let events = Recorder.events f.obs in
  assert_holds
    Trace.(
      seq
        [
          matches ~label:"fanout" (replica_fanout ~target:shared ());
          matches ~label:"winner replies" (reply ~ok:true ());
          matches ~label:"loser cancelled" (cancel ());
        ])
    events;
  (* The loser's pending entry is reaped with its timer: after running
     to quiescence there is no spurious Timeout, Giveup or Retry from
     the losing replica. *)
  Alcotest.(check int) "no spurious Timeout" 0
    (Trace.count_of (Trace.timeout ()) events);
  Alcotest.(check int) "no Giveup" 0 (Trace.count_of (Trace.giveup ()) events);
  Alcotest.(check int) "loser never retransmitted" 0
    (Trace.count_of (Trace.retry ()) events)

(* --- crash_host fails in-flight calls promptly --- *)

let test_crash_host_fails_inflight_promptly () =
  let f = make_fixture () in
  let dead_host = List.nth f.hosts 1 in
  let server = spawn f ~host:dead_host ~id:1 ~kind:"app" in
  let ctx = client_ctx f ~host:(List.hd f.hosts) ~id:2 in
  (* The call reaches the server (which never replies) and hangs
     in-flight; the host then crashes under it. *)
  Script.at f.sim ~time:0.05 (fun () -> Runtime.crash_host f.rt dead_host);
  let reply, t_done =
    sync f (fun k ->
        invoke_direct ctx ~dst_proc:server ~meth:"Silent" ~args:[] k)
  in
  (match reply with
  | Error (Err.Unreachable _) -> ()
  | r ->
      Alcotest.failf "expected Unreachable, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e));
  (* Promptly: at the crash instant, not after the 5 s call budget or
     even one 0.3 s attempt window. *)
  Alcotest.(check (float 1e-6)) "failed at the crash instant" 0.05 t_done;
  let events = Recorder.events f.obs in
  Alcotest.(check bool) "pending entry reaped (Cancel)" true
    (Trace.count_of (Trace.cancel ()) events >= 1);
  Alcotest.(check int) "no Timeout fired" 0
    (Trace.count_of (Trace.timeout ()) events)

(* --- scripted schedules --- *)

let test_script_ramp_and_pulse () =
  let sim = Engine.create () in
  let samples = ref [] in
  Script.ramp sim ~start:0.0 ~until:3.0 ~steps:3 ~values:[ 0.0; 0.05; 0.2; 0.0 ]
    (fun v -> samples := (Engine.now sim, v) :: !samples);
  let flips = ref [] in
  Script.pulse sim ~start:1.5 ~width:1.0
    ~on:(fun () -> flips := (Engine.now sim, true) :: !flips)
    ~off:(fun () -> flips := (Engine.now sim, false) :: !flips);
  let ticks = ref 0 in
  Script.every sim ~period:0.5 ~until:2.0 (fun () -> incr ticks);
  Engine.run sim;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "ramp applies each value at its step boundary"
    [ (0.0, 0.0); (1.0, 0.05); (2.0, 0.2); (3.0, 0.0) ]
    (List.rev !samples);
  Alcotest.(check (list (pair (float 1e-9) bool)))
    "pulse turns on then off"
    [ (1.5, true); (2.5, false) ]
    (List.rev !flips);
  Alcotest.(check int) "every fires while <= until" 4 !ticks

let () =
  Alcotest.run "faults"
    [
      ( "retry",
        [
          Alcotest.test_case "retry recovers a dropped call" `Quick
            test_retry_recovers_lost_call;
          Alcotest.test_case "exhausted budget gives up" `Quick
            test_exhausted_budget_gives_up;
          Alcotest.test_case "explicit timeout is a single attempt" `Quick
            test_explicit_timeout_single_attempt;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "race winner cancels losers" `Quick
            test_race_winner_cancels_losers;
          Alcotest.test_case "crash_host fails in-flight calls promptly" `Quick
            test_crash_host_fails_inflight_promptly;
        ] );
      ( "script",
        [
          Alcotest.test_case "ramp, pulse and every schedules" `Quick
            test_script_ramp_and_pulse;
        ] );
    ]
