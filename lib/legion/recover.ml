(* E15 — crash recovery under a power failure. See recover.mli. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Prng = Legion_util.Prng
module Histogram = Legion_util.Stats.Histogram
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Network = Legion_net.Network
module Script = Legion_sim.Script
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Std_parts = Legion_objects.Std_parts

type config = {
  seed : int64;
  checkpoint_period : float;
  heartbeat_period : float;
  threshold : int;
  crash_after : float;
  reboot_after : float;
  duration : float;
  period : float;
}

let default =
  {
    seed = 53L;
    checkpoint_period = 1.0;
    heartbeat_period = 0.25;
    threshold = 3;
    crash_after = 6.0;
    reboot_after = 4.0;
    duration = 16.0;
    period = 0.1;
  }

type report = {
  cfg : config;
  checkpoints : int;
  suspects : int;
  confirmed : int;
  reactivated : int;
  fenced : int;
  detect : float;
  mttr_p50 : float;
  lost : int;
  zombies : int;
  violations : string list;
}

let n_objects = 8
let call_timeout = 0.5

let run cfg =
  Std_parts.register_counter ();
  let sys =
    System.boot ~seed:cfg.seed ~trace_capacity:500_000
      ~rt_config:{ Runtime.default_config with call_timeout }
      ~sites:[ ("a", 3); ("b", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"Counter" ~units:[ Std_parts.counter_unit ]
      ~idl:Std_parts.counter_idl ()
  in
  let objects =
    Array.init n_objects (fun _ -> Api.create_object_exn sys ctx ~cls ~eager:true ())
  in
  Array.iter (fun o -> ignore (Api.call sys ctx ~dst:o ~meth:"Get" ~args:[])) objects;
  let sim = System.sim sys
  and net = System.net sys
  and obs = System.obs sys
  and rt = System.rt sys in
  let mark = Recorder.total obs in
  let count = Recorder.count obs in
  let checkpoints0 = count "Checkpoint" and suspects0 = count "Suspect" in
  let confirmed0 = count "ConfirmDead" and reactivated0 = count "Reactivate" in
  let fenced0 = count "Fence" in
  let t0 = System.now sys in
  let t_end = t0 +. cfg.duration in
  System.enable_recovery sys ~checkpoint_period:cfg.checkpoint_period
    ~heartbeat_period:cfg.heartbeat_period ~threshold:cfg.threshold
    ~until:t_end ();
  let infra = System.infra_hosts sys in
  let victim = List.find (fun h -> not (List.mem h infra)) (Network.hosts net) in
  let t_crash = t0 +. cfg.crash_after in
  (* Zombie bookkeeping: at the instant of the power failure, snapshot
     every application placement stranded on the victim with its
     delivered-call count. The epoch fence must keep those counts flat. *)
  let zombies = ref [] in
  Script.at sim ~time:t_crash (fun () ->
      zombies :=
        Runtime.procs_on_host rt victim
        |> List.filter (fun p -> Runtime.proc_kind p = Well_known.kind_app)
        |> List.map (fun p -> (p, Runtime.requests_of p));
      Runtime.power_fail rt victim);
  Script.at sim ~time:(t_crash +. cfg.reboot_after) (fun () ->
      Network.set_host_up net victim true);
  (* Open-loop workload; acks are recorded with their virtual time so
     durability can be judged against per-object checkpoint times. *)
  let acks = Array.make n_objects [] (* (ack time, value), newest first *) in
  let prng = Prng.create ~seed:(Int64.add cfg.seed 6L) in
  Script.every sim ~period:cfg.period ~until:(t_end -. 1e-9) (fun () ->
      let i = Prng.int prng n_objects in
      Runtime.invoke ctx ~dst:objects.(i) ~meth:"Increment" ~args:[ Value.Int 1 ]
        (function
          | Ok (Value.Int n) -> acks.(i) <- (System.now sys, n) :: acks.(i)
          | Ok _ | Error _ -> ()));
  System.run sys;
  (* One pass over the stage's events: when the host's death was
     confirmed, and each object's last checkpoint before the crash. *)
  let last_ckpt = Loid.Table.create () in
  let confirmed_at =
    Recorder.fold_since obs mark
      (fun first e ->
        match e.Event.kind with
        | Event.Confirm_dead _ when first = None -> Some e.Event.time
        | Event.Checkpoint { loid } when e.Event.time <= t_crash ->
            let prev =
              Option.value (Loid.Table.find last_ckpt loid) ~default:neg_infinity
            in
            Loid.Table.set last_ckpt loid (Float.max prev e.Event.time);
            first
        | _ -> first)
      None
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := ("E15: " ^ m) :: !violations) fmt
  in
  (* Detection: ConfirmDead within threshold x (heartbeat + probe
     timeout) plus one period and slack of the power failure. *)
  let detect_bound =
    (float_of_int cfg.threshold *. (cfg.heartbeat_period +. (call_timeout /. 10.0)))
    +. cfg.heartbeat_period +. 0.5
  in
  let detect =
    match confirmed_at with
    | Some t -> t -. t_crash
    | None ->
        violate "host death was never confirmed";
        nan
  in
  if detect > detect_bound then
    violate "detection took %.2f s (bound %.2f s)" detect detect_bound;
  let mttr = Recorder.latency obs ~component:"rt.mttr" in
  (match mttr with
  | None -> violate "no MTTR samples — recovery never completed"
  | Some h ->
      let worst = Histogram.percentile h 100.0 in
      (* Worst-case first-delivery-after-recovery: one timed-out call
         against the dead placement, a rebind, plus workload spacing;
         bucket granularity rounds the histogram estimate up. *)
      let bound = detect_bound +. (2.0 *. call_timeout) +. 3.0 in
      if worst > bound then
        violate "MTTR p100 %.2f s exceeds bound %.2f s" worst bound);
  (* Durability: for every object, whatever was acked before its last
     pre-crash checkpoint must be visible now. The margin covers acks
     that raced the SaveState capture across the wire. *)
  let margin = 0.1 in
  let lost = ref 0 in
  Array.iteri
    (fun i o ->
      let last_ckpt =
        Option.value (Loid.Table.find last_ckpt o) ~default:neg_infinity
      in
      let floor_value =
        List.fold_left
          (fun acc (t, v) -> if t <= last_ckpt -. margin then max acc v else acc)
          0 acks.(i)
      in
      match Api.call sys ctx ~dst:o ~meth:"Get" ~args:[] with
      | Ok (Value.Int n) -> if n < floor_value then lost := !lost + (floor_value - n)
      | Ok v -> violate "object %d: bad Get reply %s" i (Value.to_string v)
      | Error e ->
          violate "object %d unreachable after recovery: %s" i (Err.to_string e))
    objects;
  if !lost > 0 then
    violate "%d acked updates from before the last checkpoint were lost" !lost;
  (* Fencing: no zombie placement answered a call after the crash, and
     every stale placement was fenced (on delivery or at reboot). *)
  List.iter
    (fun (p, before) ->
      let after = Runtime.requests_of p in
      if after <> before then
        violate "zombie %s answered %d calls after the power failure"
          (Loid.to_string (Runtime.proc_loid p))
          (after - before))
    !zombies;
  let stale_zombies =
    List.length
      (List.filter
         (fun (p, _) ->
           Runtime.proc_epoch p < Runtime.current_epoch rt (Runtime.proc_loid p))
         !zombies)
  in
  let reactivated = count "Reactivate" - reactivated0
  and fenced = count "Fence" - fenced0 in
  if reactivated > 0 && fenced = 0 then
    violate "objects were reactivated but no stale placement was fenced";
  if stale_zombies > 0 && fenced < stale_zombies then
    violate "%d stale zombies but only %d fence events" stale_zombies fenced;
  {
    cfg;
    checkpoints = count "Checkpoint" - checkpoints0;
    suspects = count "Suspect" - suspects0;
    confirmed = count "ConfirmDead" - confirmed0;
    reactivated;
    fenced;
    detect;
    mttr_p50 = (match mttr with Some h -> Histogram.percentile h 50.0 | None -> nan);
    lost = !lost;
    zombies = List.length !zombies;
    violations = List.rev !violations;
  }

let violations r = r.violations

let to_json r =
  Printf.sprintf
    "{\"interval\":%.2f,\"checkpoints\":%d,\"suspects\":%d,\"confirmed\":%d,\
     \"reactivated\":%d,\"fenced\":%d,\"detect_s\":%.2f,\"mttr_p50_s\":%.2f,\
     \"lost\":%d,\"zombies\":%d}"
    r.cfg.checkpoint_period r.checkpoints r.suspects r.confirmed r.reactivated
    r.fenced r.detect r.mttr_p50 r.lost r.zombies

let print_table = function
  | [] -> ()
  | first :: _ as reports ->
      let c = first.cfg in
      Legion_util.Table.print
        ~title:
          (Printf.sprintf
             "E15  Crash recovery vs checkpoint interval (power-fail at %.0f s, \
              reboot +%.0f s, heartbeat %.2f s x %d)"
             c.crash_after c.reboot_after c.heartbeat_period c.threshold)
        ~header:
          [
            "ckpt s"; "ckpts"; "suspects"; "confirmed"; "reactivated"; "fenced";
            "detect s"; "mttr p50 s"; "lost"; "zombies";
          ]
        (List.map
           (fun r ->
             [
               Printf.sprintf "%.2f" r.cfg.checkpoint_period;
               string_of_int r.checkpoints;
               string_of_int r.suspects;
               string_of_int r.confirmed;
               string_of_int r.reactivated;
               string_of_int r.fenced;
               Printf.sprintf "%.2f" r.detect;
               Printf.sprintf "%.2f" r.mttr_p50;
               string_of_int r.lost;
               string_of_int r.zombies;
             ])
           reports)
