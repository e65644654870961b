(* Tests for the adversarial chaos subsystem (E22): the network
   adversary's fault vocabulary (duplication, reordering, corruption),
   the runtime's exactly-once dedup cache, the schedule replay format,
   and the explorer/shrinker.

   The protocol-level claims are shape-, not timing-assertions: a
   duplicated call must execute once, a corrupted payload must drop
   fail-closed (never raise, never deliver), and the same schedule seed
   must reproduce byte-identical reports. *)

module Value = Legion_wire.Value
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module System = Legion.System
module Api = Legion.Api
module Schedule = Legion_chaos.Schedule
module Explorer = Legion_chaos.Explorer
module H = Helpers

let boot ?(dedup = true) () =
  H.register_counter_unit ();
  let rt_config =
    {
      Runtime.default_config with
      call_timeout = 0.5;
      max_rebinds = 4;
      dedup_capacity = (if dedup then Some 4096 else None);
    }
  in
  let sys =
    System.boot ~seed:4242L ~rt_config ~sites:[ ("a", 2); ("b", 2) ] ()
  in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls () in
  (* Warm the binding so the adversary hits steady-state traffic, not
     the one-off placement machinery. *)
  (match Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warm-up Get: %s" (Err.to_string e));
  (sys, ctx, obj)

let get_value sys ctx obj =
  match Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[] with
  | Ok (Value.Int v) -> v
  | Ok v -> Alcotest.failf "Get: odd reply %s" (Value.to_string v)
  | Error e -> Alcotest.failf "Get: %s" (Err.to_string e)

(* Every message is delivered twice; the dedup cache must absorb every
   extra execution, so the counter equals the acknowledged increments
   exactly. *)
let test_duplicates_absorbed () =
  let sys, ctx, obj = boot () in
  let net = System.net sys in
  Network.set_duplicate_rate net 1.0;
  let acked = ref 0 in
  for _ = 1 to 20 do
    match Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ] with
    | Ok _ -> incr acked
    | Error e -> Alcotest.failf "Increment: %s" (Err.to_string e)
  done;
  Network.set_duplicate_rate net 0.0;
  System.run sys;
  Alcotest.(check bool) "duplicates injected" true
    (Network.messages_duplicated net > 0);
  Alcotest.(check bool) "dedup cache hit" true
    (Runtime.dedup_hits (System.rt sys) > 0);
  Alcotest.(check int) "each increment applied exactly once" !acked
    (get_value sys ctx obj)

(* The same duplication storm with the cache disabled is the detector:
   at least one duplicate executes twice, so the counter overshoots. *)
let test_duplicates_detected_without_dedup () =
  let sys, ctx, obj = boot ~dedup:false () in
  let net = System.net sys in
  Network.set_duplicate_rate net 1.0;
  let acked = ref 0 in
  for _ = 1 to 20 do
    match Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ] with
    | Ok _ -> incr acked
    | Error _ -> ()
  done;
  Network.set_duplicate_rate net 0.0;
  System.run sys;
  Alcotest.(check int) "cache disabled" 0 (Runtime.dedup_hits (System.rt sys));
  Alcotest.(check bool)
    (Printf.sprintf "double applies visible (%d acked, %d applied)" !acked
       (get_value sys ctx obj))
    true
    (get_value sys ctx obj > !acked)

(* Corrupted payloads drop fail-closed at the receiver: the call gives
   up cleanly (no exception, no delivery of a mangled body), and the
   drops are attributed to corruption. *)
let test_corruption_fails_closed () =
  let sys, ctx, obj = boot () in
  let net = System.net sys in
  Network.set_corrupt_rate net 1.0;
  (match Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ] with
  | Ok _ -> Alcotest.fail "call succeeded though every payload was corrupted"
  | Error _ -> ());
  Network.set_corrupt_rate net 0.0;
  System.run sys;
  Alcotest.(check bool) "payloads corrupted" true
    (Network.messages_corrupted net > 0);
  let causes = Network.drop_causes net in
  Alcotest.(check bool) "drops attributed to corruption" true
    (causes.Network.by_corruption > 0);
  (* The channel heals: the next call goes through and the corrupted
     increments never half-applied. *)
  Alcotest.(check int) "no partial application" 0 (get_value sys ctx obj)

(* Bounded reordering delays deliveries but loses nothing: calls still
   complete and the holds are counted. *)
let test_reordering_tolerated () =
  let sys, ctx, obj = boot () in
  let net = System.net sys in
  Network.set_reorder net ~rate:1.0 ~window:0.05;
  let acked = ref 0 in
  for _ = 1 to 10 do
    match Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ] with
    | Ok _ -> incr acked
    | Error e -> Alcotest.failf "Increment under reorder: %s" (Err.to_string e)
  done;
  Network.set_reorder net ~rate:0.0 ~window:0.0;
  System.run sys;
  Alcotest.(check bool) "messages were held back" true
    (Network.messages_reordered net > 0);
  Alcotest.(check int) "every increment applied exactly once" !acked
    (get_value sys ctx obj)

(* Fault knobs validate their input eagerly: NaN or out-of-[0,1]
   rates raise Invalid_argument instead of silently skewing the
   adversary's sampling. *)
let test_knob_validation () =
  let sys, _, _ = boot () in
  let net = System.net sys in
  let rejects label f =
    match f () with
    | () -> Alcotest.failf "%s accepted" label
    | exception Invalid_argument _ -> ()
  in
  rejects "NaN drop rate" (fun () -> Network.set_drop_rate net Float.nan);
  rejects "negative drop rate" (fun () -> Network.set_drop_rate net (-0.1));
  rejects "drop rate > 1" (fun () -> Network.set_drop_rate net 1.5);
  rejects "NaN duplicate rate" (fun () ->
      Network.set_duplicate_rate net Float.nan);
  rejects "duplicate rate > 1" (fun () -> Network.set_duplicate_rate net 2.0);
  rejects "NaN corrupt rate" (fun () -> Network.set_corrupt_rate net Float.nan);
  rejects "negative corrupt rate" (fun () ->
      Network.set_corrupt_rate net (-1e-9));
  rejects "NaN reorder rate" (fun () ->
      Network.set_reorder net ~rate:Float.nan ~window:0.1);
  rejects "negative reorder window" (fun () ->
      Network.set_reorder net ~rate:0.5 ~window:(-0.1));
  (* The boundary values are legal. *)
  Network.set_drop_rate net 0.0;
  Network.set_duplicate_rate net 1.0;
  Network.set_corrupt_rate net 0.0;
  Network.set_reorder net ~rate:1.0 ~window:0.0

(* --- schedule format --- *)

let test_schedule_roundtrip () =
  for i = 1 to 25 do
    let sch = Schedule.generate ~seed:(Int64.of_int (1000 + i)) () in
    match Schedule.of_string (Schedule.to_string sch) with
    | Ok sch' ->
        if not (Schedule.equal sch sch') then
          Alcotest.failf "seed %d did not round-trip:\n%s\nvs\n%s" i
            (Schedule.to_string sch) (Schedule.to_string sch')
    | Error msg -> Alcotest.failf "seed %d failed to parse back: %s" i msg
  done

let test_schedule_parse_errors () =
  let reject label text =
    match Schedule.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s parsed" label
  in
  reject "empty input" "";
  reject "missing seed" "workload uniform\nrounds 8\n";
  reject "unknown directive" "seed 1\nworkload uniform\nrounds 8\nfrobnicate\n";
  reject "unknown action" "seed 1\nworkload uniform\nrounds 8\nstep 2 melt 1\n";
  reject "malformed rate" "seed 1\nworkload uniform\nrounds 8\nstep 2 drop x\n";
  reject "out-of-range rate" "seed 1\nworkload uniform\nrounds 8\nstep 2 drop 1.5\n";
  reject "unknown workload" "seed 1\nworkload pareto\nrounds 8\n"

(* --- explorer --- *)

let mini_dup_heavy = Explorer.dup_heavy ~seed:31337L

let test_explorer_deterministic () =
  let sch = Schedule.generate ~rounds:8 ~seed:70707L () in
  let a = Explorer.outcome_json sch (Explorer.run_schedule sch) in
  let b = Explorer.outcome_json sch (Explorer.run_schedule sch) in
  Alcotest.(check string) "same seed, byte-identical report" a b

let test_explorer_dedup_halves () =
  let on = Explorer.run_schedule ~dedup:true mini_dup_heavy in
  Alcotest.(check (list string)) "dedup ON holds the invariants" []
    on.Explorer.violations;
  Alcotest.(check bool) "dedup ON absorbed duplicates" true
    (on.Explorer.dedup_hits > 0);
  let off = Explorer.run_schedule ~dedup:false mini_dup_heavy in
  Alcotest.(check bool) "dedup OFF detects double applies" true
    (off.Explorer.double_applies > 0)

let test_shrinker () =
  (* A passing schedule is returned unchanged. *)
  let sch = Schedule.generate ~rounds:8 ~seed:70707L () in
  let rep = Explorer.run_schedule sch in
  Alcotest.(check (list string)) "baseline passes" [] rep.Explorer.violations;
  let sch', _ = Explorer.shrink sch rep in
  Alcotest.(check bool) "passing schedule not shrunk" true
    (Schedule.equal sch sch');
  (* A failing one (dedup off under duplication) shrinks to a smaller
     schedule that still fails. *)
  let off = Explorer.run_schedule ~dedup:false mini_dup_heavy in
  Alcotest.(check bool) "dup-heavy fails without dedup" true
    (Explorer.failed off);
  let min_sch, min_rep = Explorer.shrink ~dedup:false mini_dup_heavy off in
  Alcotest.(check bool) "shrunk schedule still fails" true
    (Explorer.failed min_rep);
  Alcotest.(check bool) "shrunk schedule is no larger" true
    (List.length min_sch.Schedule.steps
    <= List.length mini_dup_heavy.Schedule.steps);
  (* The minimized schedule still round-trips through the artifact
     format — the replay contract of E22_FAILING_SCHEDULE.txt. *)
  match Schedule.of_string (Schedule.to_string min_sch) with
  | Ok s -> Alcotest.(check bool) "artifact round-trips" true
      (Schedule.equal s min_sch)
  | Error msg -> Alcotest.failf "artifact failed to parse: %s" msg

let () =
  Alcotest.run "chaos"
    [
      ( "adversary",
        [
          Alcotest.test_case "duplicates absorbed exactly-once" `Quick
            test_duplicates_absorbed;
          Alcotest.test_case "duplicates detected without dedup" `Quick
            test_duplicates_detected_without_dedup;
          Alcotest.test_case "corruption drops fail closed" `Quick
            test_corruption_fails_closed;
          Alcotest.test_case "reordering tolerated" `Quick
            test_reordering_tolerated;
          Alcotest.test_case "fault knobs reject bad rates" `Quick
            test_knob_validation;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "generate/print/parse round-trip" `Quick
            test_schedule_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick
            test_schedule_parse_errors;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "byte-deterministic per seed" `Slow
            test_explorer_deterministic;
          Alcotest.test_case "dedup halves of the E22 gate" `Slow
            test_explorer_dedup_halves;
          Alcotest.test_case "shrinker minimizes failing schedules" `Slow
            test_shrinker;
        ] );
    ]
