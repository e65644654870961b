(* legion-sim: a command-line driver for the simulated Legion.

   Subcommands:
     boot     bring a system up, print its inventory, run idle
     drive    run a synthetic workload and report per-component load
     trace    run one binding resolution with full message accounting
     soak     run a chaos workload and check every object survives
     faults   run an open-loop workload under a scripted fault schedule
     chaos    run the E22 gate: seeded adversarial schedules against the
              composed ledger/txn/group workload, plus the dedup on/off
              pair; --replay FILE re-runs one shrunk artifact
     recover  run the E15 crash-recovery scenario (power failure with
              checkpoints, heartbeat detection and fencing armed)
     overload run the E16 saturation sweep against a serial bottleneck,
              unprotected and with admission control and breakers
     replicate run the E17 replica kill sweep and fenced network split
     scale    run the E18 planetary-sweep kernels at a chosen scale,
              optionally emitting the deterministic JSON report
     elastic  run the E19 flash-crowd gate, static and elastic
     txn      run the E20 atomic-invocation scenario (2PC and sagas,
              optionally crashing the coordinator) and audit atomicity
              from the event-sourced version history
     tenants  run the E21 noisy-neighbor gate, quiet and noisy
     idl      parse an IDL file and echo the normalized interfaces

   The gated subcommands drive the same library code as the bench gates
   and exit non-zero exactly when a gate is violated. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Std_parts = Legion_objects.Std_parts
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Network = Legion_net.Network
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Script = Legion_sim.Script
module System = Legion.System
module Api = Legion.Api
open Cmdliner

(* --- shared arguments --- *)

let counter_unit = Std_parts.counter_unit

let boot_system ~sites ~seed =
  Std_parts.register_counter ();
  System.boot ~seed:(Int64.of_int seed) ~sites ()

(* A topology is NAME:HOSTS[,NAME:HOSTS...]; a malformed entry is a
   usage error that names it. *)
let sites_conv =
  let entry e =
    match String.split_on_char ':' e with
    | [ name; n ] when name <> "" -> (
        match int_of_string_opt n with Some k when k > 0 -> Some (name, k) | _ -> None)
    | _ -> None
  in
  let rec parse = function
    | [] -> Ok []
    | e :: rest -> (
        match entry e with
        | Some site -> Result.map (List.cons site) (parse rest)
        | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "bad site entry %S: expected NAME:HOSTS with a non-empty \
                     NAME and a positive integer HOSTS"
                    e)))
  in
  let print ppf sites =
    Format.pp_print_string ppf
      (String.concat "," (List.map (fun (n, k) -> Printf.sprintf "%s:%d" n k) sites))
  in
  Arg.conv ((fun spec -> parse (String.split_on_char ',' spec)), print)

let sites_arg =
  let doc = "Topology: comma-separated site:hosts pairs, e.g. uva:4,doe:8." in
  Arg.(value & opt sites_conv [ ("east", 3); ("west", 3) ] & info [ "sites" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc = "PRNG seed; runs are deterministic per seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

(* Numeric values: a malformed or out-of-range value is a usage error
   that names its option. *)
let checked of_string what ok s =
  match of_string s with
  | Some x when ok x -> Ok x
  | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))

let parse_probability =
  checked float_of_string_opt "a probability in [0,1]" (fun p ->
      p >= 0.0 && p <= 1.0)

let float_conv parse = Arg.conv (parse, Format.pp_print_float)
let probability = float_conv parse_probability

let parse_positive =
  checked float_of_string_opt "a positive number" (fun x ->
      Float.is_finite x && x > 0.0)

let positive = float_conv parse_positive

let seconds =
  float_conv
    (checked float_of_string_opt "a non-negative number of seconds" (fun x ->
         Float.is_finite x && x >= 0.0))

let int_conv what ok =
  Arg.conv (checked int_of_string_opt what ok, Format.pp_print_int)

let positive_int = int_conv "a positive integer" (fun n -> n > 0)
let non_negative_int = int_conv "a non-negative integer" (fun n -> n >= 0)

let arg c name ~docv ~doc default =
  Arg.(value & opt c default & info [ name ] ~docv ~doc)

(* --- gated scenarios --- *)

(* chaos, recover, overload, replicate, elastic, txn and tenants run the
   library gates the bench runs: the defaults are the gate's config,
   --json prints the gate's JSON, and the exit code is non-zero exactly
   when a gate is violated. *)
let report ~json ~to_json ~print ~violations r =
  if json then print_endline (to_json r) else print r;
  match violations r with
  | [] -> ()
  | vs ->
      flush stdout;
      List.iter (Format.eprintf "violation: %s@.") vs;
      exit 1

let scenario_exits =
  Cmd.Exit.info 1 ~doc:"when a gate of the scenario is violated."
  :: Cmd.Exit.defaults

let scenario_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the gate's JSON report on stdout (same seed, same bytes).")

let scenario_seed_arg default =
  Arg.(value & opt int64 default & info [ "seed" ] ~docv:"N"
         ~doc:"PRNG seed; runs are deterministic per seed.")

(* --- boot --- *)

let cmd_boot =
  let run sites seed =
    let sys = boot_system ~sites ~seed in
    Format.printf "Legion is up.@.@.";
    Format.printf "%-12s %-8s %-40s@." "site" "hosts" "magistrate / binding agent";
    List.iter
      (fun s ->
        Format.printf "%-12s %-8d %s / %s@." s.System.site_name
          (List.length s.System.net_hosts)
          (Loid.to_string s.System.magistrate)
          (Loid.to_string s.System.agent))
      (System.sites sys);
    Format.printf "@.core classes:@.";
    List.iter
      (fun c -> Format.printf "  %s@." (Loid.to_string c))
      Well_known.core_classes;
    Format.printf "@.%d messages exchanged during bootstrap@."
      (Network.messages_sent (System.net sys))
  in
  let info = Cmd.info "boot" ~doc:"Boot a system and print its inventory." in
  Cmd.v info Term.(const run $ sites_arg $ seed_arg)

(* --- drive --- *)

let cmd_drive =
  let objects_arg =
    arg positive_int "objects" ~docv:"N" ~doc:"Objects to create." 32
  in
  let calls_arg =
    arg positive_int "calls" ~docv:"N" ~doc:"Invocations to issue." 1000
  in
  let tree_arg =
    arg non_negative_int "tree" ~docv:"K"
      ~doc:"Arrange site Binding Agents under a combining tree of this fan-out (0 = flat)."
      0
  in
  let run sites seed objects calls tree =
    let sys = boot_system ~sites ~seed in
    if tree > 0 then System.arrange_agent_tree sys ~fanout:tree;
    let ctx = System.client sys () in
    let cls =
      Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name:"Counter"
        ~units:[ counter_unit ] ()
    in
    let objs =
      Array.init objects (fun _ -> Api.create_object_exn sys ctx ~cls ())
    in
    let prng = Prng.create ~seed:(Int64.of_int (seed + 1)) in
    let failures = ref 0 in
    let t0 = System.now sys in
    for _ = 1 to calls do
      let target = objs.(Prng.int prng objects) in
      match Api.call sys ctx ~dst:target ~meth:"Increment" ~args:[ Value.Int 1 ] with
      | Ok _ -> ()
      | Error _ -> incr failures
    done;
    Format.printf "%d calls over %d objects in %.3f virtual s (%d failures)@.@."
      calls objects
      (System.now sys -. t0)
      !failures;
    let groups =
      [
        Well_known.kind_binding_agent;
        Well_known.kind_class;
        Well_known.kind_magistrate;
        Well_known.kind_host;
        Well_known.kind_app;
      ]
    in
    Format.printf "%-15s %-10s %-10s@." "component" "total rq" "max rq";
    let reg = System.registry sys in
    List.iter
      (fun g ->
        let mx = match Counter.Registry.group_max reg g with
          | Some (_, v) -> v
          | None -> 0
        in
        Format.printf "%-15s %-10d %-10d@." g (Counter.Registry.group_total reg g) mx)
      groups;
    let ih, is_, ws = Network.messages_by_tier (System.net sys) in
    Format.printf "@.messages: %d intra-host, %d intra-site, %d wide-area (%d dropped)@."
      ih is_ ws
      (Network.messages_dropped (System.net sys))
  in
  let info = Cmd.info "drive" ~doc:"Run a synthetic workload and report load." in
  Cmd.v info Term.(const run $ sites_arg $ seed_arg $ objects_arg $ calls_arg $ tree_arg)

(* --- trace --- *)

let cmd_trace =
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every trace event.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the structured event trace as JSON on stdout.")
  in
  let run sites seed verbose json =
    let sys = boot_system ~sites ~seed in
    let obs = System.obs sys in
    let ctx = System.client sys () in
    let cls =
      Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name:"Counter"
        ~units:[ counter_unit ] ()
    in
    let loid = Api.create_object_exn sys ctx ~cls () in
    if not json then Format.printf "created %s (inert)@." (Loid.to_string loid);
    (* Each stage runs against a cleared recorder, so its event list is
       exactly the §4.1 sequence the stage exercises. *)
    let stage label f =
      Recorder.clear obs;
      let m0 = Network.messages_sent (System.net sys) in
      let t0 = System.now sys in
      let err = match f () with Ok _ -> None | Error e -> Some (Err.to_string e) in
      ( label,
        Network.messages_sent (System.net sys) - m0,
        (System.now sys -. t0) *. 1000.0,
        err,
        Recorder.events obs )
    in
    let deactivate () =
      (* The managing Magistrate is whichever accepted the placement;
         asking all of them deactivates the object exactly once. *)
      List.iter
        (fun m ->
          ignore
            (Api.call sys ctx ~dst:m ~meth:"Deactivate" ~args:[ Loid.to_value loid ]))
        (System.magistrates sys);
      Ok Value.Unit
    in
    let get () = Api.call sys ctx ~dst:loid ~meth:"Get" ~args:[] in
    (* Evaluation order matters (each stage advances the simulation), so
       bind them in sequence rather than inside the list literal. *)
    let s1 = stage "first reference (cold)" get in
    let s2 = stage "second reference (cached)" get in
    let s3 = stage "deactivate (goes inert)" deactivate in
    let s4 = stage "reference after deactivation (stale binding)" get in
    let stages = [ s1; s2; s3; s4 ] in
    if json then begin
      let stage_json (label, msgs, ms, err, events) =
        Printf.sprintf "{%S:%S,%S:%d,%S:%.6f%s,%S:[%s]}" "label" label
          "messages" msgs "virtual_ms" ms
          (match err with
          | None -> ""
          | Some e -> Printf.sprintf ",%S:%S" "error" e)
          "events"
          (String.concat "," (List.map Event.to_json events))
      in
      print_string
        (Printf.sprintf "{%S:[%s]}\n" "stages"
           (String.concat "," (List.map stage_json stages)))
    end
    else
      List.iter
        (fun (label, msgs, ms, err, events) ->
          Format.printf "%-44s %2d messages, %.3f virtual ms%s@." label msgs ms
            (match err with None -> "" | Some e -> Printf.sprintf "  (%s)" e);
          if verbose then
            List.iter (fun e -> Format.printf "  %a@." Event.pp e) events)
        stages
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Trace the Fig. 17 binding sequences (cold, warm, stale) as \
         structured events."
  in
  Cmd.v info Term.(const run $ sites_arg $ seed_arg $ verbose_arg $ json_arg)

(* --- soak --- *)

let cmd_soak =
  let rounds_arg =
    arg positive_int "rounds" ~docv:"N" ~doc:"Workload rounds." 300
  in
  let chaos_arg =
    arg probability "chaos" ~docv:"P"
      ~doc:"Per-round probability of a host crash (with reboot)." 0.03
  in
  let run sites seed rounds chaos =
    let sys = boot_system ~sites ~seed in
    let ctx = System.client sys () in
    let cls =
      Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name:"Counter"
        ~units:[ counter_unit ] ()
    in
    let n_objects = 16 in
    let objs = Array.init n_objects (fun _ -> Api.create_object_exn sys ctx ~cls ()) in
    let prng = Prng.create ~seed:(Int64.of_int (seed + 99)) in
    let infra = System.infra_hosts sys in
    let ok = ref 0 and failed = ref 0 and crashes = ref 0 in
    for _ = 1 to rounds do
      let target = objs.(Prng.int prng n_objects) in
      (match Api.call sys ctx ~dst:target ~meth:"Increment" ~args:[ Value.Int 1 ] with
      | Ok _ -> incr ok
      | Error _ -> incr failed);
      if Prng.bernoulli prng ~p:chaos then begin
        let candidates =
          List.filter
            (fun h ->
              (not (List.mem h infra)) && Network.host_is_up (System.net sys) h)
            (Network.hosts (System.net sys))
        in
        if candidates <> [] then begin
          (* Checkpoint everything, then crash; the host reboots later. *)
          List.iter
            (fun m ->
              ignore
                (Api.call sys ctx ~dst:m ~meth:"SweepIdle" ~args:[ Value.Float 0.0 ]))
            (System.magistrates sys);
          let victim = List.nth candidates (Prng.int prng (List.length candidates)) in
          Runtime.crash_host (System.rt sys) victim;
          incr crashes;
          let net = System.net sys in
          ignore
            (Legion_sim.Engine.schedule (System.sim sys) ~delay:5.0 (fun () ->
                 Network.set_host_up net victim true))
        end
      end;
      System.run_for sys 0.2
    done;
    System.run sys;
    let reachable =
      Array.fold_left
        (fun acc o ->
          match Api.call sys ctx ~dst:o ~meth:"Get" ~args:[] with
          | Ok _ -> acc + 1
          | Error _ -> acc)
        0 objs
    in
    Format.printf
      "%d rounds: %d ok, %d failed during chaos; %d crashes injected@." rounds !ok
      !failed !crashes;
    Format.printf "after healing: %d/%d objects reachable; %.1f virtual s elapsed@."
      reachable n_objects (System.now sys);
    if reachable < n_objects then exit 1
  in
  let info =
    Cmd.info "soak" ~doc:"Run a chaos workload and verify every object survives."
  in
  Cmd.v info Term.(const run $ sites_arg $ seed_arg $ rounds_arg $ chaos_arg)

(* --- faults --- *)

(* A comma-separated list of numbers, each checked by [parse_entry]:
   a bad or empty entry is a usage error that names it. *)
let float_list parse_entry =
  let rec parse = function
    | [] -> Ok []
    | p :: rest ->
        Result.bind (parse_entry p) (fun p -> Result.map (List.cons p) (parse rest))
  in
  let print =
    Format.(
      pp_print_list ~pp_sep:(fun ppf () -> pp_print_char ppf ',') pp_print_float)
  in
  Arg.conv ((fun spec -> parse (String.split_on_char ',' spec)), print)

let ramp = float_list parse_probability

let cmd_faults =
  let ramp_arg =
    Arg.(value & opt ramp [ 0.0; 0.01; 0.05; 0.2; 0.0 ]
         & info [ "ramp" ] ~docv:"P0,P1,..."
             ~doc:"Drop-rate ramp: the values are stepped through evenly over the run.")
  in
  let duration_arg =
    Arg.(value & opt positive 20.0
         & info [ "duration" ] ~docv:"S" ~doc:"Virtual seconds of workload.")
  in
  let period_arg =
    Arg.(value & opt positive 0.05
         & info [ "period" ] ~docv:"S" ~doc:"Seconds between calls (open loop).")
  in
  let partition_arg =
    Arg.(value & opt (some (pair ~sep:':' seconds seconds)) None
         & info [ "partition" ] ~docv:"T:W"
             ~doc:"Partition the first two sites from T for W seconds.")
  in
  let crash_arg =
    Arg.(value & opt (some seconds) None
         & info [ "crash" ] ~docv:"T"
             ~doc:"Crash a non-infrastructure host at T; it reboots 5 s later.")
  in
  let duplicate_arg =
    Arg.(value & opt probability 0.0
         & info [ "duplicate" ] ~docv:"P"
             ~doc:"Probability that a delivered message is delivered twice.")
  in
  let corrupt_arg =
    Arg.(value & opt probability 0.0
         & info [ "corrupt" ] ~docv:"P"
             ~doc:"Probability that a payload is byte-mutated in flight \
                   (dropped at the receiver by the integrity check).")
  in
  let reorder_arg =
    Arg.(value & opt (some (pair ~sep:':' probability seconds)) None
         & info [ "reorder" ] ~docv:"P:W"
             ~doc:"Hold back messages with probability P for up to W extra \
                   seconds, letting later traffic overtake them.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the report as one JSON object (goodput windows, retry \
               counters, per-cause drop split, MTTR percentiles).")
  in
  let run sites seed values duration period partition crash duplicate corrupt
      reorder json =
    let sys = boot_system ~sites ~seed in
    let sim = System.sim sys and net = System.net sys and obs = System.obs sys in
    let infra = System.infra_hosts sys in
    let workers =
      List.filter (fun h -> not (List.mem h infra)) (Network.hosts net)
    in
    (* Topology conflicts are usage errors too. *)
    if partition <> None && List.length sites < 2 then
      `Error (true, "--partition needs two sites")
    else if crash <> None && workers = [] then
      `Error
        (true, "--crash needs a non-infrastructure host (a site with 2+ hosts)")
    else begin
      let ctx = System.client sys () in
      let cls =
        Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name:"Counter"
          ~units:[ counter_unit ] ()
      in
      let n_objects = 16 in
      let objs =
        Array.init n_objects (fun _ -> Api.create_object_exn sys ctx ~cls ~eager:true ())
      in
      Array.iter (fun o -> ignore (Api.call sys ctx ~dst:o ~meth:"Get" ~args:[])) objs;
      let retries0 = Recorder.count obs "Retry"
      and giveups0 = Recorder.count obs "Giveup"
      and cancels0 = Recorder.count obs "Cancel" in
      let steps = max 1 (List.length values - 1) in
      let t0 = System.now sys in
      let t_end = t0 +. duration in
      Script.ramp sim ~start:t0 ~until:t_end ~steps ~values
        (Network.set_drop_rate net);
      if duplicate > 0.0 then Network.set_duplicate_rate net duplicate;
      if corrupt > 0.0 then Network.set_corrupt_rate net corrupt;
      (match reorder with
      | None -> ()
      | Some (rate, window) -> Network.set_reorder net ~rate ~window);
      (match partition with
      | None -> ()
      | Some (t, w) ->
          let sites = System.sites sys in
          let a = (List.nth sites 0).System.site_id
          and b = (List.nth sites 1).System.site_id in
          Script.pulse sim ~start:(t0 +. t) ~width:w
            ~on:(fun () -> Network.set_partitioned net a b true)
            ~off:(fun () -> Network.set_partitioned net a b false));
      (match crash with
      | None -> ()
      | Some t ->
          let victim = List.hd workers in
          Script.at sim ~time:(t0 +. t) (fun () ->
              Runtime.crash_host (System.rt sys) victim);
          Script.at sim ~time:(t0 +. t +. 5.0) (fun () ->
              Network.set_host_up net victim true));
      (* The open-loop workload: outcomes are bucketed by issue time so
         goodput can be read per ramp step. *)
      let step_width = duration /. float_of_int steps in
      let issued = Array.make steps 0 and ok = Array.make steps 0 in
      let giveup_errors = ref 0 in
      let prng = Prng.create ~seed:(Int64.of_int (seed + 7)) in
      Script.every sim ~period ~until:(t_end -. 1e-9) (fun () ->
          let step =
            min (steps - 1)
              (int_of_float ((System.now sys -. t0) /. step_width))
          in
          issued.(step) <- issued.(step) + 1;
          let target = objs.(Prng.int prng n_objects) in
          Runtime.invoke ctx ~dst:target ~meth:"Increment" ~args:[ Value.Int 1 ]
            (function
              | Ok _ -> ok.(step) <- ok.(step) + 1
              | Error _ -> incr giveup_errors));
      System.run sys;
      let retries = Recorder.count obs "Retry" - retries0
      and giveups = Recorder.count obs "Giveup" - giveups0
      and cancels = Recorder.count obs "Cancel" - cancels0 in
      let hist_json name h =
        match h with
        | None -> Printf.sprintf "\"%s\":{\"samples\":0}" name
        | Some h ->
            let module H = Legion_util.Stats.Histogram in
            Printf.sprintf
              "\"%s\":{\"samples\":%d,\"p50_ms\":%.1f,\"p90_ms\":%.1f,\"p99_ms\":%.1f}"
              name (H.total h)
              (1000.0 *. H.percentile h 50.0)
              (1000.0 *. H.percentile h 90.0)
              (1000.0 *. H.percentile h 99.0)
      in
      if json then begin
        let window_json i v =
          Printf.sprintf
            "{\"from\":%.2f,\"to\":%.2f,\"drop\":%.3f,\"issued\":%d,\"ok\":%d}"
            (float_of_int i *. step_width)
            (float_of_int (i + 1) *. step_width)
            v issued.(i) ok.(i)
        in
        let windows =
          List.filteri (fun i _ -> i < steps) values
          |> List.mapi window_json |> String.concat ","
        in
        let ih, is_, ws = Network.messages_by_tier net in
        let causes = Network.drop_causes net in
        Format.printf
          "{\"windows\":[%s],\"retries\":%d,\"giveups\":%d,\"cancels\":%d,\
           \"failed\":%d,\"sheds\":%d,%s,%s,\"messages\":{\"intra_host\":%d,\
           \"intra_site\":%d,\"wide_area\":%d,\"messages_dropped\":%d,\
           \"duplicated\":%d,\"reordered\":%d,\"corrupted\":%d},\
           \"drops\":{\"by_rate\":%d,\"by_down_host\":%d,\"by_partition\":%d,\
           \"by_no_receiver\":%d,\"by_corruption\":%d}}@."
          windows retries giveups cancels !giveup_errors
          (Runtime.total_sheds (System.rt sys))
          (hist_json "recovery" (Recorder.latency obs ~component:"rt.recovery"))
          (hist_json "mttr" (Recorder.latency obs ~component:"rt.mttr"))
          ih is_ ws
          (Network.messages_dropped net)
          (Network.messages_duplicated net)
          (Network.messages_reordered net)
          (Network.messages_corrupted net)
          causes.Network.by_rate causes.Network.by_down_host
          causes.Network.by_partition causes.Network.by_no_receiver
          causes.Network.by_corruption
      end
      else begin
        Format.printf "%-10s %-10s %-8s %-8s %-8s@." "window s" "drop" "issued" "ok" "goodput";
        List.iteri
          (fun i v ->
            if i < steps then
              Format.printf "%4.1f-%-5.1f %-10.2f %-8d %-8d %5.1f%%@."
                (float_of_int i *. step_width)
                (float_of_int (i + 1) *. step_width)
                v issued.(i) ok.(i)
                (if issued.(i) = 0 then 100.0
                 else 100.0 *. float_of_int ok.(i) /. float_of_int issued.(i)))
          values;
        Format.printf
          "@.%d retransmissions, %d exhausted budgets, %d cancelled calls; %d calls failed@."
          retries giveups cancels !giveup_errors;
        let hist_line name h =
          match h with
          | Some h ->
              Format.printf "%s: %d samples, p50 %.0f ms, p99 %.0f ms@." name
                (Legion_util.Stats.Histogram.total h)
                (1000.0 *. Legion_util.Stats.Histogram.percentile h 50.0)
                (1000.0 *. Legion_util.Stats.Histogram.percentile h 99.0)
          | None -> Format.printf "%s: no samples@." name
        in
        hist_line "recovery latency" (Recorder.latency obs ~component:"rt.recovery");
        hist_line "mttr" (Recorder.latency obs ~component:"rt.mttr");
        let ih, is_, ws = Network.messages_by_tier net in
        Format.printf "messages: %d intra-host, %d intra-site, %d wide-area (%d dropped)@."
          ih is_ ws
          (Network.messages_dropped net);
        let dup = Network.messages_duplicated net
        and reord = Network.messages_reordered net
        and corr = Network.messages_corrupted net in
        if dup + reord + corr > 0 then
          Format.printf "adversary: %d duplicated, %d reordered, %d corrupted@."
            dup reord corr;
        let c = Network.drop_causes net in
        Format.printf
          "drops: %d rate, %d down host, %d partition, %d no receiver, %d corruption@."
          c.Network.by_rate c.Network.by_down_host c.Network.by_partition
          c.Network.by_no_receiver c.Network.by_corruption
      end;
      `Ok ()
    end
  in
  let info =
    Cmd.info "faults"
      ~doc:
        "Run an open-loop workload under a scripted fault schedule (drop-rate \
         ramp, site partition, host crash) and report goodput and retry traffic."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ sites_arg $ seed_arg $ ramp_arg $ duration_arg $ period_arg
       $ partition_arg $ crash_arg $ duplicate_arg $ corrupt_arg $ reorder_arg
       $ json_arg))

(* --- chaos --- *)

let cmd_chaos =
  let module Schedule = Legion_chaos.Schedule in
  let module Explorer = Legion_chaos.Explorer in
  let d = Explorer.default in
  let replay_arg =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay one schedule from its serialized artifact instead \
                   of running the gate.")
  in
  let replay ~json file =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Schedule.of_string text with
    | Error msg ->
        Format.eprintf "%s: %s@." file msg;
        exit 2
    | Ok sch ->
        let o = Explorer.run_schedule sch in
        if json then print_endline (Explorer.outcome_json sch o)
        else begin
          Format.printf "%a@." Schedule.pp sch;
          Format.printf
            "ledger: %d acked, %d recorded, %d double applies, %d dedup hits@."
            o.Explorer.ledger_acked o.Explorer.ledger_recorded
            o.Explorer.double_applies o.Explorer.dedup_hits;
          Format.printf
            "txns: %d acked, %d committed, %d compensated; group: %d acked@."
            o.Explorer.txns_acked o.Explorer.txns_committed
            o.Explorer.txns_compensated o.Explorer.group_acked;
          Format.printf
            "adversary: %d duplicated, %d reordered, %d corrupted, %d \
             dropped (%d by corruption), %d crashes@."
            o.Explorer.duplicated o.Explorer.reordered o.Explorer.corrupted
            o.Explorer.dropped o.Explorer.drops_corrupt o.Explorer.crashes;
          if Explorer.failed o then
            List.iter (Format.printf "violation: %s@.") o.Explorer.violations
          else Format.printf "all invariants held@."
        end;
        if Explorer.failed o then exit 1
  in
  let run seed schedules rounds replay_file json =
    match replay_file with
    | Some file -> replay ~json file
    | None ->
        let r = Explorer.run { Explorer.seed; schedules; rounds } in
        Explorer.write_artifact r;
        report ~json ~to_json:Explorer.to_json ~print:Explorer.print
          ~violations:Explorer.violations r
  in
  let info =
    Cmd.info "chaos" ~exits:scenario_exits
      ~doc:
        "Run the E22 chaos gate: a fleet of seeded adversarial fault \
         schedules against the composed ledger + transaction + fenced-group \
         workload, each run twice, then a duplication-heavy schedule with \
         the dedup cache on and off. A failing schedule is shrunk to a \
         replayable artifact."
  in
  Cmd.v info
    Term.(
      const run $ scenario_seed_arg d.Explorer.seed
      $ arg positive_int "schedules" ~docv:"N"
          ~doc:"Seeded schedules in the fleet (ignored with $(b,--replay))."
          d.Explorer.schedules
      $ arg positive_int "rounds" ~docv:"N"
          ~doc:"Workload rounds per fleet schedule." d.Explorer.rounds
      $ replay_arg $ scenario_json_arg)

let cmd_overload =
  let module O = Legion.Overload in
  let d = O.default in
  let rates_arg =
    Arg.(value & opt (float_list parse_positive) d.O.rates
         & info [ "rates" ] ~docv:"M0,M1,..."
             ~doc:"Offered-load ramp as multiples of the measured saturation \
                   rate, one step each.")
  in
  let step_arg =
    arg positive "step" ~docv:"S" ~doc:"Virtual seconds per ramp step." d.O.step
  in
  let service_arg =
    arg positive "service" ~docv:"S"
      ~doc:"Service time of the serial bottleneck object." d.O.service
  in
  let run seed rates step service json =
    report ~json ~to_json:O.to_json ~print:O.print ~violations:O.violations
      (O.run { O.seed; rates; step; service })
  in
  let info =
    Cmd.info "overload" ~exits:scenario_exits
      ~doc:
        "Run the E16 overload scenario: drive a serial-service object through \
         an open-loop saturation ramp, once unprotected and once with \
         admission control and circuit breakers, and gate on goodput, p99 \
         and the baseline's collapse."
  in
  Cmd.v info
    Term.(
      const run $ scenario_seed_arg d.O.seed $ rates_arg $ step_arg
      $ service_arg $ scenario_json_arg)

let cmd_recover =
  let module R = Legion.Recover in
  let d = R.default in
  let run seed checkpoint_period heartbeat_period threshold crash_after
      reboot_after duration period json =
    report ~json ~to_json:R.to_json
      ~print:(fun r -> R.print_table [ r ])
      ~violations:R.violations
      (R.run
         {
           R.seed;
           checkpoint_period;
           heartbeat_period;
           threshold;
           crash_after;
           reboot_after;
           duration;
           period;
         })
  in
  let info =
    Cmd.info "recover" ~exits:scenario_exits
      ~doc:
        "Run the E15 crash-recovery scenario: power-fail a host under an \
         open-loop workload with checkpointing and heartbeat failure \
         detection armed, and gate on lost updates, detection time, MTTR and \
         fencing."
  in
  Cmd.v info
    Term.(
      const run $ scenario_seed_arg d.R.seed
      $ arg positive "checkpoint-period" ~docv:"S"
          ~doc:"Seconds between Magistrate checkpoint sweeps."
          d.R.checkpoint_period
      $ arg positive "heartbeat-period" ~docv:"S"
          ~doc:"Seconds between Host Object heartbeat probes."
          d.R.heartbeat_period
      $ arg positive_int "threshold" ~docv:"N"
          ~doc:"Missed heartbeats before a host is confirmed dead."
          d.R.threshold
      $ arg seconds "crash" ~docv:"T"
          ~doc:"Power-fail a non-infrastructure host T seconds into the workload."
          d.R.crash_after
      $ arg seconds "reboot-after" ~docv:"W"
          ~doc:"Seconds after the crash at which the host reboots."
          d.R.reboot_after
      $ arg positive "duration" ~docv:"S" ~doc:"Virtual seconds of workload."
          d.R.duration
      $ arg positive "period" ~docv:"S" ~doc:"Seconds between calls (open loop)."
          d.R.period
      $ scenario_json_arg)

let cmd_replicate =
  let module R = Legion.Replicate in
  let d = R.default in
  let run seed replicas kills kill_every period json =
    report ~json ~to_json:R.to_json ~print:R.print ~violations:R.violations
      (R.run { R.seed; replicas; kills; kill_every; period })
  in
  let info =
    Cmd.info "replicate" ~exits:scenario_exits
      ~doc:
        "Run the E17 self-healing replication scenario: a replica set through \
         a host-kill sweep, then a fenced and an unfenced quorum group through \
         a network split and heal, and gate on availability, repair, fencing \
         and anti-entropy."
  in
  Cmd.v info
    Term.(
      const run $ scenario_seed_arg d.R.seed
      $ arg
          (int_conv "a replication factor in 1..4" (fun r -> r >= 1 && r <= 4))
          "replicas" ~docv:"R" ~doc:"Replication factor (1 to 4)." d.R.replicas
      $ arg non_negative_int "kills" ~docv:"N"
          ~doc:"Hosts to crash, one every $(b,--kill-every) seconds." d.R.kills
      $ arg positive "kill-every" ~docv:"S" ~doc:"Seconds between kills."
          d.R.kill_every
      $ arg positive "period" ~docv:"S" ~doc:"Seconds between calls (open loop)."
          d.R.period
      $ scenario_json_arg)

(* --- scale --- *)

let cmd_scale =
  let module P = Legion.Planet in
  let d = P.smoke in
  let run seed objects calls sites hosts_per_site queue_events json =
    let cfg =
      { d with P.seed; sites; hosts_per_site; objects; calls; queue_events }
    in
    if json then print_string (P.to_json (P.run cfg))
    else begin
      let c0 = Sys.time () in
      let report = P.run ~progress:(Printf.printf "  %s\n%!") cfg in
      let cpu = Sys.time () -. c0 in
      P.print report;
      Printf.printf "%d events total, %.1f s cpu (%.0f events/s)\n"
        report.P.total_events cpu
        (float_of_int report.P.total_events /. Float.max 1e-9 cpu)
    end
  in
  let info =
    Cmd.info "scale"
      ~doc:
        "Run the E18 planetary sweep kernels (queue, cache, tree, clone) at a \
         configurable scale; the defaults are E18's smoke profile."
  in
  Cmd.v info
    Term.(
      const run $ scenario_seed_arg d.P.seed
      $ arg positive_int "objects" ~docv:"N"
          ~doc:"Cache-kernel object population." d.P.objects
      $ arg positive_int "calls" ~docv:"N" ~doc:"Cache-kernel invocation count."
          d.P.calls
      $ arg positive_int "sites" ~docv:"N" ~doc:"Number of sites." d.P.sites
      $ arg positive_int "hosts-per-site" ~docv:"N" ~doc:"Hosts per site."
          d.P.hosts_per_site
      $ arg positive_int "queue-events" ~docv:"N"
          ~doc:"Raw event-heap kernel event budget." d.P.queue_events
      $ scenario_json_arg)

(* --- elastic --- *)

let cmd_elastic =
  let module E = Legion.Elastic in
  let run seed json =
    report ~json ~to_json:E.to_json ~print:E.print ~violations:E.violations
      (E.run { E.seed })
  in
  let info =
    Cmd.info "elastic" ~exits:scenario_exits
      ~doc:
        "Run the E19 flash-crowd gate: the scenario once static and once with \
         the autonomic machinery (class cloning, object migration, \
         Jurisdiction splitting, agent re-tiering) armed, and gate on the \
         settled-flash latency, the hottest host's share and every \
         adaptation firing."
  in
  Cmd.v info
    Term.(const run $ scenario_seed_arg E.default.E.seed $ scenario_json_arg)

(* --- txn --- *)

let cmd_txn =
  let module T = Legion.Txn in
  let d = T.default in
  let mode_arg =
    Arg.(value
         & opt (enum [ ("mix", T.Mix); ("2pc", T.Two_phase); ("saga", T.Saga) ]) d.T.mode
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Commit protocol: $(b,2pc), $(b,saga), or a seeded $(b,mix).")
  in
  let crash_arg =
    Arg.(value & flag
         & info [ "crash-coordinator" ]
             ~doc:
               "Run E20's crash-coordinator schedule: power-fail the \
                coordinator's host right after round 10's 2PC commit is \
                acknowledged; recovery must resume the durable decision.")
  in
  let run seed rounds mode crash json =
    let schedule = if crash then T.Crash_coordinator else T.Clean in
    report ~json ~to_json:T.to_json
      ~print:(fun r -> T.print_table [ r ])
      ~violations:T.violations
      (T.run { T.seed; rounds; schedule; mode })
  in
  let info =
    Cmd.info "txn" ~exits:scenario_exits
      ~doc:
        "Run the E20 atomic-invocation scenario: 2PC and saga transactions \
         through a coordinator, optionally power-failing it mid-run, then \
         audit atomicity from the event-sourced version history and probe \
         for orphaned locks and in-doubt transactions."
  in
  Cmd.v info
    Term.(
      const run $ scenario_seed_arg d.T.seed
      $ arg positive_int "rounds" ~docv:"N" ~doc:"Transaction rounds." d.T.rounds
      $ mode_arg $ crash_arg $ scenario_json_arg)

(* --- tenants --- *)

let cmd_tenants =
  let module T = Legion.Tenants in
  let run seed json =
    report ~json ~to_json:T.to_json ~print:T.print ~violations:T.violations
      (T.run { T.seed })
  in
  let info =
    Cmd.info "tenants" ~exits:scenario_exits
      ~doc:
        "Run the E21 noisy-neighbor gate: the scenario quiet and noisy (same \
         seed), and gate on tenant isolation, shed attribution and denied \
         bindings."
  in
  Cmd.v info
    Term.(const run $ scenario_seed_arg T.default.T.seed $ scenario_json_arg)

(* --- idl --- *)

let cmd_idl =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"IDL source file.")
  in
  let run file =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Legion_idl.Parser.file src with
    | Ok interfaces ->
        List.iter
          (fun i -> Format.printf "%a@.@." Legion_idl.Interface.pp i)
          interfaces
    | Error e ->
        Format.eprintf "%s: %a@." file Legion_idl.Parser.pp_error e;
        exit 1
  in
  let info =
    Cmd.info "idl"
      ~doc:"Parse and normalize a file of interface declarations, each in \
            CORBA-style IDL ($(b,interface)) or MPL ($(b,mentat class))."
  in
  Cmd.v info Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "legion-sim" ~version:"1.0"
      ~doc:"Drive the simulated Core Legion Object Model from the command line."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_boot; cmd_drive; cmd_trace; cmd_soak; cmd_faults; cmd_chaos;
            cmd_overload; cmd_recover; cmd_replicate; cmd_scale; cmd_elastic;
            cmd_txn; cmd_tenants; cmd_idl;
          ]))
