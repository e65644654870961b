(* E16 — overload: admission control, shedding, circuit breakers. See
   overload.mli. *)

module Value = Legion_wire.Value
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Breaker = Legion_rt.Breaker
module Network = Legion_net.Network
module Script = Legion_sim.Script
module Recorder = Legion_obs.Recorder
module Std_parts = Legion_objects.Std_parts

type config = { seed : int64; rates : float list; step : float; service : float }

let default =
  { seed = 53L; rates = [ 0.5; 1.0; 1.5; 2.0; 2.5 ]; step = 5.0; service = 0.02 }

type step_row = { rate : float; issued : int; ok : int; failed : int; p99 : float }

type arm = {
  label : string;
  steps : step_row list;
  saturation : float;
  sheds : int;
  opens : int;
  probes : int;
  closes : int;
  retries : int;
  dropped : int;
}

type report = { cfg : config; baseline : arm; protected : arm }

let call_timeout = 1.5

(* A tight retransmission policy so the end-to-end call budget — and
   with it the honest latency ceiling — is small. Both arms share it:
   the baseline's collapse must come from unbounded queueing and
   retransmission amplification, not from a softer policy. *)
let retry =
  {
    Legion_rt.Retry.max_attempts = 6;
    attempt_timeout = 0.05;
    multiplier = 2.0;
    jitter = 0.1;
  }

let percentile xs p =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      List.nth sorted (max 0 (min (n - 1) idx))

let run_arm cfg ~protected =
  let common = { Runtime.default_config with call_timeout; retry } in
  let rt_config =
    if protected then
      {
        common with
        admission =
          Some
            {
              Runtime.max_inflight = 4;
              max_queue = 16;
              retry_after_hint = cfg.service;
            };
        breaker = Some Breaker.default_config;
      }
    else common
  in
  let sys =
    System.boot ~seed:cfg.seed ~rt_config
      ~sites:[ ("a", 3); ("b", 3) ]
      ()
  in
  Std_parts.register_serial_counter ~service:cfg.service;
  let ctx = System.client sys () in
  let cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"SlowCounter" ~units:[ Std_parts.serial_counter_unit ]
      ~idl:"interface SlowCounter { Increment(d: int): int; Get(): int; }" ()
  in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  ignore (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]);
  (* Measured saturation: a closed-loop client against a serial server
     completes 1 / (service + rtt) calls per second. The open-loop ramp
     is scaled off this observation, not off the configured constant. *)
  let warm = 20 in
  let t_warm = System.now sys in
  for _ = 1 to warm do
    ignore (Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ])
  done;
  let saturation = float_of_int warm /. (System.now sys -. t_warm) in
  let sim = System.sim sys and obs = System.obs sys and rt = System.rt sys in
  let net = System.net sys in
  let count = Recorder.count obs in
  let opens0 = count "BreakerOpen" and probes0 = count "BreakerProbe" in
  let closes0 = count "BreakerClose" and retries0 = count "Retry" in
  let sheds0 = Runtime.total_sheds rt in
  let dropped0 = Network.messages_dropped net in
  let steps = List.length cfg.rates in
  let rates = List.map (fun m -> m *. saturation) cfg.rates in
  let t0 = System.now sys in
  let t_end = t0 +. (float_of_int steps *. cfg.step) in
  let issued = Array.make steps 0
  and ok = Array.make steps 0
  and failed = Array.make steps 0
  and latencies = Array.make steps [] in
  Script.load_ramp sim ~start:t0 ~until:(t_end -. 1e-9)
    ~steps:(max 1 (steps - 1))
    ~rates (fun _seq ->
      let t_issue = System.now sys in
      let step = min (steps - 1) (int_of_float ((t_issue -. t0) /. cfg.step)) in
      issued.(step) <- issued.(step) + 1;
      Runtime.invoke ctx ~max_rebinds:0 ~dst:obj ~meth:"Increment"
        ~args:[ Value.Int 1 ]
        (function
          | Ok _ ->
              ok.(step) <- ok.(step) + 1;
              latencies.(step) <- (System.now sys -. t_issue) :: latencies.(step)
          | Error _ -> failed.(step) <- failed.(step) + 1));
  System.run sys;
  {
    label = (if protected then "protected" else "baseline");
    steps =
      List.mapi
        (fun i rate ->
          {
            rate;
            issued = issued.(i);
            ok = ok.(i);
            failed = failed.(i);
            p99 = percentile latencies.(i) 99.0;
          })
        rates;
    saturation;
    sheds = Runtime.total_sheds rt - sheds0;
    opens = count "BreakerOpen" - opens0;
    probes = count "BreakerProbe" - probes0;
    closes = count "BreakerClose" - closes0;
    retries = count "Retry" - retries0;
    dropped = Network.messages_dropped net - dropped0;
  }

let run cfg =
  let baseline = run_arm cfg ~protected:false in
  let protected = run_arm cfg ~protected:true in
  { cfg; baseline; protected }

(* --- Gates. --- *)

let goodput r row = float_of_int row.ok /. r.cfg.step

let peak_goodput r arm =
  List.fold_left (fun acc row -> Float.max acc (goodput r row)) 0.0 arm.steps

let past_knee arm =
  List.filter (fun row -> row.rate >= (2.0 *. arm.saturation) -. 1e-9) arm.steps

(* A successful call — admitted after any number of sheds and hinted
   backoffs — lives inside one call budget ([call_timeout]; the
   workload pins [max_rebinds] to 0, so no fresh budgets are granted).
   The slack covers binding resolution and the last reply's flight. *)
let p99_bound = call_timeout +. 0.2

let violations r =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := ("E16: " ^ m) :: !violations) fmt
  in
  let p99_over row = (not (Float.is_nan row.p99)) && row.p99 > p99_bound in
  let p = r.protected and b = r.baseline in
  let peak = peak_goodput r p in
  List.iter
    (fun row ->
      let x = row.rate /. p.saturation in
      if goodput r row < 0.7 *. peak then
        violate
          "protected goodput %.1f/s at %.1fx saturation fell below 70%% of \
           peak %.1f/s"
          (goodput r row) x peak;
      if p99_over row then
        violate "protected p99 %.2f s at %.1fx saturation exceeds bound %.2f s"
          row.p99 x p99_bound)
    (past_knee p);
  if p.sheds = 0 then
    violate "the protected run never shed — the ramp missed the knee";
  (* The baseline must actually collapse; otherwise the protection is
     being measured against a workload that never needed it. *)
  let base_peak = peak_goodput r b in
  let base_last = List.nth b.steps (List.length b.steps - 1) in
  if
    goodput r base_last >= 0.5 *. base_peak
    && not (List.exists p99_over (past_knee b))
  then
    violate
      "baseline failed to collapse (last-step goodput %.1f/s vs peak %.1f/s, \
       p99 within bound)"
      (goodput r base_last) base_peak;
  List.rev !violations

(* --- Reporting. --- *)

let to_json r =
  let arm_json a =
    let step_json row =
      Printf.sprintf
        "{\"rate\":%.2f,\"issued\":%d,\"ok\":%d,\"failed\":%d,\"goodput\":%.2f,\
         \"p99_ms\":%s}"
        row.rate row.issued row.ok row.failed (goodput r row)
        (if Float.is_nan row.p99 then "null"
         else Printf.sprintf "%.1f" (row.p99 *. 1000.0))
    in
    Printf.sprintf
      "{\"label\":%S,\"saturation\":%.2f,\"sheds\":%d,\"breaker_opens\":%d,\
       \"breaker_probes\":%d,\"breaker_closes\":%d,\"retries\":%d,\
       \"messages_dropped\":%d,\"steps\":[%s]}"
      a.label a.saturation a.sheds a.opens a.probes a.closes a.retries a.dropped
      (String.concat "," (List.map step_json a.steps))
  in
  Printf.sprintf "{\"experiment\":\"e16\",\"p99_bound\":%.2f,\"runs\":[%s,%s]}"
    p99_bound (arm_json r.baseline) (arm_json r.protected)

let print r =
  let rows a =
    List.map
      (fun row ->
        [
          a.label;
          Printf.sprintf "%.1fx" (row.rate /. a.saturation);
          Printf.sprintf "%.1f" row.rate;
          string_of_int row.issued;
          string_of_int row.ok;
          string_of_int row.failed;
          Printf.sprintf "%.1f" (goodput r row);
          (if Float.is_nan row.p99 then "-"
           else Printf.sprintf "%.2f" (row.p99 *. 1000.0));
        ])
      a.steps
  in
  Legion_util.Table.print
    ~title:
      (Printf.sprintf
         "E16  Open-loop saturation sweep (serial service %.0f ms, measured \
          saturation %.1f/s, %.0f s per step)"
         (r.cfg.service *. 1000.0) r.protected.saturation r.cfg.step)
    ~header:
      [ "run"; "offered"; "rate/s"; "issued"; "ok"; "failed"; "goodput/s"; "p99 ms" ]
    (rows r.baseline @ rows r.protected);
  Printf.printf "\nbaseline:  %d sheds, %d retries, %d messages dropped\n"
    r.baseline.sheds r.baseline.retries r.baseline.dropped;
  Printf.printf
    "protected: %d sheds, %d retries, %d dropped; breaker %d opens / %d \
     probes / %d closes\n"
    r.protected.sheds r.protected.retries r.protected.dropped r.protected.opens
    r.protected.probes r.protected.closes
