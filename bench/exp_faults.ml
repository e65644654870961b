(* E14 — Goodput and retry traffic under message loss (§4.1.4).

   "Legion expects the presence of stale bindings" — and of lost
   messages: the communication layer must mask transient loss, not
   surface it. The runtime's retransmission policy (exponential backoff
   under the configured call budget) is exercised two ways:

   1. A drop-rate sweep: 800 closed-loop invocations over 16 objects at
      0%, 1%, 5% and 20% uniform message loss. Expected shape: goodput
      stays at 100% through 5% loss with zero give-ups (the retry
      budget masks the faults — enforced below as a hard floor), and
      retry traffic scales with the drop rate while mean latency climbs
      only as fast as the loss forces retransmissions.

   2. A blackout: an open-loop workload (one call every 50 ms for 12
      virtual seconds) across a scripted 1-second total outage. Every
      call issued during the blackout must still complete — recovery
      latency, not failure, is the cost; the rt.recovery histogram
      shows how long the masked calls were delayed. *)

open Exp_common
module Network = Legion_net.Network
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Script = Legion_sim.Script

let n_objects = 16
let n_invocations = 800

let boot () =
  register_units ();
  let sys =
    System.boot ~seed:41L ~sites:[ ("a", 4); ("b", 4) ] ()
  in
  let ctx = System.client sys () in
  let cls = make_counter_class sys ctx () in
  let objects =
    Array.init n_objects (fun _ -> Api.create_object_exn sys ctx ~cls ~eager:true ())
  in
  (* Warm every binding before the faults start, so the measurements
     isolate the invocation layer rather than first-touch resolution. *)
  Array.iter (fun o -> ignore (Api.call sys ctx ~dst:o ~meth:"Get" ~args:[])) objects;
  (sys, ctx, objects)

(* --- part 1: the drop-rate sweep --- *)

let run_one ~drop =
  let sys, ctx, objects = boot () in
  Network.set_drop_rate (System.net sys) drop;
  let obs = System.obs sys in
  let retries0 = Recorder.count obs "Retry"
  and giveups0 = Recorder.count obs "Giveup" in
  let prng = Prng.create ~seed:43L in
  let lat = Stats.create () in
  let ok = ref 0 and failed = ref 0 in
  for _ = 1 to n_invocations do
    let target = objects.(Prng.int prng n_objects) in
    let t0 = System.now sys in
    match Api.call sys ctx ~dst:target ~meth:"Increment" ~args:[ Value.Int 1 ] with
    | Ok _ ->
        incr ok;
        Stats.add lat (System.now sys -. t0)
    | Error _ -> incr failed
  done;
  let retries = Recorder.count obs "Retry" - retries0
  and giveups = Recorder.count obs "Giveup" - giveups0 in
  let goodput = 100.0 *. float_of_int !ok /. float_of_int n_invocations in
  (* The acceptance floor: at <= 5% loss the default retry budget must
     mask the faults (>= 95% goodput, no exhausted budgets). *)
  if drop <= 0.05 && (goodput < 95.0 || giveups > 0) then
    failwith
      (Printf.sprintf
         "E14: %.1f%% goodput, %d give-ups at %.0f%% drop — retry budget failed to mask the loss"
         goodput giveups (100.0 *. drop));
  [
    Printf.sprintf "%.0f%%" (100.0 *. drop);
    fmt_i !ok;
    fmt_i !failed;
    Printf.sprintf "%.1f%%" goodput;
    fmt_i retries;
    fmt_f (float_of_int retries /. float_of_int n_invocations);
    fmt_i giveups;
    fmt_ms (Stats.mean lat);
    fmt_ms (Stats.percentile lat 99.0);
  ]

(* --- part 2: riding out a scripted blackout --- *)

let run_blackout () =
  let sys, ctx, objects = boot () in
  let sim = System.sim sys and net = System.net sys and obs = System.obs sys in
  let retries0 = Recorder.count obs "Retry"
  and giveups0 = Recorder.count obs "Giveup" in
  let t0 = System.now sys in
  let blackout_start = t0 +. 2.0 and blackout_width = 1.0 in
  Script.pulse sim ~start:blackout_start ~width:blackout_width
    ~on:(fun () -> Network.set_drop_rate net 1.0)
    ~off:(fun () -> Network.set_drop_rate net 0.0);
  let prng = Prng.create ~seed:47L in
  let issued = ref 0 and ok = ref 0 and failed = ref 0 in
  let in_window = ref 0 and in_window_ok = ref 0 in
  Script.every sim ~period:0.05 ~until:(t0 +. 12.0) (fun () ->
      incr issued;
      let t_issue = System.now sys in
      let windowed =
        t_issue >= blackout_start && t_issue < blackout_start +. blackout_width
      in
      if windowed then incr in_window;
      let target = objects.(Prng.int prng n_objects) in
      Runtime.invoke ctx ~dst:target ~meth:"Increment" ~args:[ Value.Int 1 ]
        (function
          | Ok _ ->
              incr ok;
              if windowed then incr in_window_ok
          | Error _ -> incr failed));
  System.run sys;
  let retries = Recorder.count obs "Retry" - retries0
  and giveups = Recorder.count obs "Giveup" - giveups0 in
  Printf.printf
    "\nE14b Blackout recovery: 1.0 s total outage under a 20 Hz open-loop workload\n";
  Printf.printf
    "  %d calls issued, %d ok, %d failed; %d issued inside the blackout, %d of those recovered\n"
    !issued !ok !failed !in_window !in_window_ok;
  Printf.printf "  %d retransmissions, %d give-ups\n" retries giveups;
  (match Recorder.latency obs ~component:"rt.recovery" with
  | Some h ->
      Printf.printf
        "  recovery latency (calls needing >1 transmission): %d samples, p50 %.0f ms, p99 %.0f ms\n"
        (Legion_util.Stats.Histogram.total h)
        (1000.0 *. Legion_util.Stats.Histogram.percentile h 50.0)
        (1000.0 *. Legion_util.Stats.Histogram.percentile h 99.0)
  | None -> Printf.printf "  (no recovery samples)\n");
  if !in_window_ok < !in_window then
    failwith "E14b: a call issued during the blackout was not recovered";
  if giveups > 0 then failwith "E14b: blackout exhausted a retry budget"

let run () =
  let rows = List.map (fun drop -> run_one ~drop) [ 0.0; 0.01; 0.05; 0.2 ] in
  print_table
    ~title:
      (Printf.sprintf "E14  Goodput and retry traffic vs drop rate (%d calls over %d objects)"
         n_invocations n_objects)
    ~header:
      [
        "drop"; "ok"; "failed"; "goodput"; "retries"; "retries/call"; "give-ups";
        "mean ms"; "p99 ms";
      ]
    rows;
  run_blackout ()
