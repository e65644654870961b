(* Soak test: a long "day in the life" of a Legion under continuous
   adversity. Hours of virtual time with a steady workload while the
   harness injects host crashes, partitions (healed), idle sweeps, and
   migrations. At the end, every object must still be reachable and its
   state must equal the reference model exactly: the system never
   acknowledged an update it lost.

   Invariant discipline: an Increment is added to the model only when
   the client saw Ok. Retries can double-apply (at-least-once, the
   paper's model has no exactly-once layer), so the system value may
   exceed the model — it must never be below. Objects checkpointed by
   sweeps/deactivations and then crashed can lose only un-checkpointed
   deltas; the driver tracks a lower bound accordingly: the value after
   the last acknowledged checkpoint. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Prng = Legion_util.Prng
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Script = Legion_sim.Script
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module System = Legion.System
module Api = Legion.Api
module H = Helpers

let n_objects = 16
let rounds = 400

let test_soak () =
  let sys =
    H.register_counter_unit ();
    Legion.System.boot ~seed:2026L
      ~rt_config:{ Runtime.default_config with call_timeout = 0.5; max_rebinds = 4 }
      ~sites:[ ("a", 4); ("b", 4); ("c", 4) ]
      ()
  in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let objects = Array.init n_objects (fun _ -> Api.create_object_exn sys ctx ~cls ()) in
  (* lower.(i) = the floor the object can never fall below (value at the
     last checkpoint the system acknowledged). *)
  let lower = Array.make n_objects 0 in
  let acked = Array.make n_objects 0 in
  let prng = Prng.create ~seed:77L in
  let crashes = ref 0 and partitions = ref 0 and sweeps = ref 0 in
  let infra_hosts = System.infra_hosts sys in
  for round = 1 to rounds do
    (* Workload: one increment on a random object. *)
    let i = Prng.int prng n_objects in
    (match
       Api.call sys ctx ~dst:objects.(i) ~meth:"Increment" ~args:[ Value.Int 1 ]
     with
    | Ok _ -> acked.(i) <- acked.(i) + 1
    | Error _ -> ());
    (* Chaos, low probability each round. *)
    if Prng.bernoulli prng ~p:0.03 then begin
      (* Checkpoint then crash a random non-infrastructure host. *)
      let candidates =
        List.filter
          (fun h -> not (List.mem h infra_hosts) && Network.host_is_up (System.net sys) h)
          (Network.hosts (System.net sys))
      in
      if candidates <> [] then begin
        let victim = List.nth candidates (Prng.int prng (List.length candidates)) in
        (* Objects on the victim lose un-checkpointed state; their floor
           is whatever the last checkpoint captured. We conservatively
           checkpoint everything first via idle sweep with threshold 0,
           so the floor becomes the acked count at this instant. *)
        List.iter
          (fun m ->
            match
              Api.call sys ctx ~dst:m ~meth:"SweepIdle" ~args:[ Value.Float 0.0 ]
            with
            | Ok _ | Error _ -> ())
          (System.magistrates sys);
        Array.iteri (fun j _ -> lower.(j) <- acked.(j)) objects;
        Runtime.crash_host (System.rt sys) victim;
        incr crashes;
        (* Hosts come back after a while (rebooted by the site). *)
        let net = System.net sys in
        ignore
          (Legion_sim.Engine.schedule (System.sim sys) ~delay:5.0 (fun () ->
               Network.set_host_up net victim true))
      end
    end;
    if Prng.bernoulli prng ~p:0.01 then begin
      (* Brief partition between two random sites, healed shortly. *)
      let a = Prng.int prng 3 and b = Prng.int prng 3 in
      if a <> b then begin
        Network.set_partitioned (System.net sys) a b true;
        incr partitions;
        let net = System.net sys in
        ignore
          (Legion_sim.Engine.schedule (System.sim sys) ~delay:2.0 (fun () ->
               Network.set_partitioned net a b false))
      end
    end;
    if round mod 100 = 0 then begin
      (* Periodic idle sweep, as a resource-manager daemon would. *)
      List.iter
        (fun m ->
          match Api.call sys ctx ~dst:m ~meth:"SweepIdle" ~args:[ Value.Float 20.0 ] with
          | Ok _ | Error _ -> incr sweeps)
        (System.magistrates sys)
    end;
    (* Let time flow a little between rounds. *)
    System.run_for sys 0.2
  done;
  (* Heal everything, then audit. *)
  List.iter (fun h -> Network.set_host_up (System.net sys) h true)
    (Network.hosts (System.net sys));
  for a = 0 to 2 do
    for b = a + 1 to 2 do
      Network.set_partitioned (System.net sys) a b false
    done
  done;
  System.run sys;
  let unreachable = ref 0 in
  Array.iteri
    (fun i o ->
      match Api.call sys ctx ~dst:o ~meth:"Get" ~args:[] with
      | Ok (Value.Int v) ->
          if v < lower.(i) then
            Alcotest.failf "object %d regressed below its checkpoint: %d < %d" i v
              lower.(i);
          if v > acked.(i) + 8 then
            Alcotest.failf
              "object %d wildly over-applied: %d vs %d acknowledged" i v acked.(i)
      | Ok v -> Alcotest.failf "object %d: odd reply %s" i (Value.to_string v)
      | Error _ -> incr unreachable)
    objects;
  Alcotest.(check int) "every object reachable after healing" 0 !unreachable;
  (* The chaos actually happened. *)
  Alcotest.(check bool)
    (Printf.sprintf "chaos occurred (%d crashes, %d partitions)" !crashes !partitions)
    true
    (!crashes > 0 && !partitions > 0);
  Alcotest.(check bool) "simulated hours elapsed" true (System.now sys > 60.0)

(* Scripted crash/reboot churn with the recovery machinery armed: hosts
   power-fail and reboot on a fixed schedule while an open-loop workload
   runs. Unlike the chaos soak above, nobody calls SweepIdle — the
   Magistrates' own checkpoint sweeps are the only durability, and the
   heartbeat detector (not a caller) drives reactivation. At the end
   every object must be live with at-least-checkpointed state, and no
   zombie placement may have answered a single call. *)
let n_churn_objects = 8

let test_recovery_churn () =
  let sys =
    H.register_counter_unit ();
    Legion.System.boot ~seed:97L
      ~rt_config:{ Runtime.default_config with call_timeout = 0.5; max_rebinds = 4 }
      ~sites:[ ("a", 3); ("b", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let objects =
    Array.init n_churn_objects (fun _ ->
        Api.create_object_exn sys ctx ~cls ~eager:true ())
  in
  Array.iter
    (fun o -> ignore (Api.call sys ctx ~dst:o ~meth:"Get" ~args:[]))
    objects;
  let sim = System.sim sys
  and net = System.net sys
  and rt = System.rt sys
  and obs = System.obs sys in
  let mark = Recorder.total obs in
  let t0 = System.now sys in
  let duration = 42.0 in
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(t0 +. duration)
    ();
  let infra = System.infra_hosts sys in
  let victims =
    List.filter (fun h -> not (List.mem h infra)) (Network.hosts net)
  in
  Alcotest.(check bool) "churn has victims" true (List.length victims >= 2);
  (* Staggered pulses: each victim goes down for 4 s, one after another,
     so every non-infrastructure host dies and reboots at least once. *)
  let zombies = ref [] in
  let last_crash = ref t0 in
  List.iteri
    (fun i victim ->
      let start = t0 +. 4.0 +. (8.0 *. float_of_int i) in
      last_crash := Float.max !last_crash start;
      Script.pulse sim ~start ~width:4.0
        ~on:(fun () ->
          List.iter
            (fun p ->
              if Runtime.proc_kind p = Legion_core.Well_known.kind_app then
                zombies := (p, Runtime.requests_of p) :: !zombies)
            (Runtime.procs_on_host rt victim);
          Runtime.power_fail rt victim)
        ~off:(fun () -> Network.set_host_up net victim true))
    victims;
  let acks = Array.make n_churn_objects [] in
  let prng = Prng.create ~seed:101L in
  Script.every sim ~period:0.1 ~until:(t0 +. duration -. 1e-9) (fun () ->
      let i = Prng.int prng n_churn_objects in
      Runtime.invoke ctx ~dst:objects.(i) ~meth:"Increment" ~args:[ Value.Int 1 ]
        (function
          | Ok (Value.Int n) -> acks.(i) <- (System.now sys, n) :: acks.(i)
          | Ok _ | Error _ -> ()));
  System.run sys;
  let events = Recorder.events_since obs mark in
  (* The churn actually exercised the machinery. *)
  Alcotest.(check bool) "hosts were confirmed dead" true
    (Trace.count_of (Trace.confirm_dead ()) events >= List.length victims);
  Alcotest.(check bool) "objects were reactivated" true
    (Trace.count_of (Trace.reactivate ()) events > 0);
  (* Every object is live and holds at least what its last checkpoint
     before the final crash captured (margin covers acks racing the
     SaveState capture across the wire). *)
  let margin = 0.1 in
  Array.iteri
    (fun i o ->
      let last_ckpt =
        List.fold_left
          (fun acc e ->
            match e.Event.kind with
            | Event.Checkpoint { loid }
              when Loid.equal loid o && e.Event.time <= !last_crash ->
                Float.max acc e.Event.time
            | _ -> acc)
          neg_infinity events
      in
      let floor_value =
        List.fold_left
          (fun acc (t, v) -> if t <= last_ckpt -. margin then max acc v else acc)
          0 acks.(i)
      in
      match Api.call sys ctx ~dst:o ~meth:"Get" ~args:[] with
      | Ok (Value.Int v) ->
          if v < floor_value then
            Alcotest.failf "object %d regressed below its checkpoint: %d < %d" i
              v floor_value
      | Ok v -> Alcotest.failf "object %d: odd reply %s" i (Value.to_string v)
      | Error e ->
          Alcotest.failf "object %d unreachable after churn: %s" i
            (Legion_rt.Err.to_string e))
    objects;
  (* Zombie placements stranded by the power failures answered nothing:
     the epoch fence rejected every delivery before dispatch. *)
  List.iter
    (fun (p, before) ->
      if Runtime.requests_of p <> before then
        Alcotest.failf "zombie %s answered %d calls after its power failure"
          (Loid.to_string (Runtime.proc_loid p))
          (Runtime.requests_of p - before))
    !zombies

(* Transactions under churn: a steady mix of 2PC and saga transactions
   while hosts power-fail (and reboot) and sites partition (and heal),
   with the recovery machinery armed. The E20 invariant holds at
   quiescence regardless of what the chaos hit: every transaction is
   all-committed or all-compensated — the store histories carry no
   Staged residue and no transaction with mixed marks — and no
   participant is left holding an orphaned prepare lock. Outcomes are
   protocol-shaped, so the boot seed is swept (LEGION_TRACE_SEED). *)
module Txn = Legion.Txn
module Participant = Legion_txn.Participant
module Coordinator = Legion_txn.Coordinator
module Err = Legion_rt.Err

let txn_seed =
  match Sys.getenv_opt "LEGION_TRACE_SEED" with
  | Some s -> Int64.of_string s
  | None -> 11L

let n_txn_participants = 6
let n_txn_rounds = 60

let test_txn_churn () =
  let sys =
    H.register_counter_unit ();
    Legion.System.boot ~seed:txn_seed
      ~rt_config:{ Runtime.default_config with call_timeout = 0.5; max_rebinds = 4 }
      ~sites:[ ("a", 3); ("b", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let net = System.net sys and rt = System.rt sys in
  let part_cls =
    Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
      ~name:"ChurnCounter"
      ~units:[ H.counter_unit; Participant.unit_name ]
      ()
  in
  let coord_cls =
    Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
      ~name:"ChurnCoordinator" ~units:[ Coordinator.unit_name ] ()
  in
  let objects =
    Array.init n_txn_participants (fun _ ->
        Api.create_object_exn sys ctx ~cls:part_cls ~eager:true ())
  in
  let coords =
    Array.init 2 (fun _ ->
        Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true ())
  in
  Array.iter
    (fun co ->
      match
        Api.call sys ctx ~dst:co ~meth:"Configure"
          ~args:[ Value.Record [ ("store", Value.Str "a") ] ]
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "Configure: %s" (Err.to_string e))
    coords;
  let t0 = System.now sys in
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(t0 +. 300.0)
    ();
  (* Message-level adversity on top of the crash/partition churn:
     delivered duplicates (which the runtime's exactly-once cache must
     absorb — a prepare or commit executing twice would corrupt the
     protocol state the audit below checks) and bounded reordering. *)
  Network.set_duplicate_rate net 0.08;
  Network.set_reorder net ~rate:0.15 ~window:0.05;
  System.run_for sys 2.0;
  let prng = Prng.create ~seed:(Int64.add txn_seed 5L) in
  let infra = System.infra_hosts sys in
  let submitted = ref [] in
  let committed_ids = ref [] in
  let crashes = ref 0 and partitions = ref 0 in
  for round = 1 to n_txn_rounds do
    (* One transaction per round: random coordinator, mode, and two
       distinct participants. *)
    let co = coords.(Prng.int prng (Array.length coords)) in
    let i = Prng.int prng n_txn_participants in
    let j = (i + 1 + Prng.int prng (n_txn_participants - 1)) mod n_txn_participants in
    let mode = if Prng.bernoulli prng ~p:0.5 then "2pc" else "saga" in
    let d = 1 + Prng.int prng 5 in
    Runtime.invoke ctx ~dst:co ~meth:"TxnRun"
      ~args:
        [ Value.Str mode; Value.List [ Txn.step objects.(i) d; Txn.step objects.(j) d ] ]
      (function
        | Ok (Value.Str id) ->
            submitted := id :: !submitted;
            committed_ids := id :: !committed_ids
        | Ok _ -> ()
        | Error (Err.Txn_aborted { txn }) -> submitted := txn :: !submitted
        | Error _ ->
            (* Coordinator crashed before the outcome reached us; the
               audit resolves the fate from the histories. *)
            ());
    (* Chaos: crash a random non-infrastructure host (rebooted later),
       or briefly partition the two sites. *)
    if Prng.bernoulli prng ~p:0.12 then begin
      let candidates =
        List.filter
          (fun h -> (not (List.mem h infra)) && Network.host_is_up net h)
          (Network.hosts net)
      in
      if candidates <> [] then begin
        let victim = List.nth candidates (Prng.int prng (List.length candidates)) in
        Runtime.power_fail rt victim;
        incr crashes;
        ignore
          (Legion_sim.Engine.schedule (System.sim sys) ~delay:6.0 (fun () ->
               Network.set_host_up net victim true))
      end
    end;
    (* At least one partition per run regardless of the seed's luck:
       round 30 always splits the sites. *)
    if round = 30 || Prng.bernoulli prng ~p:0.05 then begin
      Network.set_partitioned net 0 1 true;
      incr partitions;
      ignore
        (Legion_sim.Engine.schedule (System.sim sys) ~delay:2.0 (fun () ->
             Network.set_partitioned net 0 1 false))
    end;
    System.run_for sys 1.0
  done;
  (* Heal everything and let the recovery and redrive machinery drain:
     reactivations, TxnResume, commit/compensation redrives. *)
  List.iter (fun h -> Network.set_host_up net h true) (Network.hosts net);
  Network.set_partitioned net 0 1 false;
  System.run_for sys 60.0;
  System.run sys;
  Alcotest.(check bool)
    (Printf.sprintf "chaos occurred (%d crashes, %d partitions)" !crashes
       !partitions)
    true
    (!crashes > 0 && !partitions > 0);
  Alcotest.(check bool) "duplicates were injected" true
    (Network.messages_duplicated net > 0);
  Alcotest.(check bool) "dedup cache absorbed duplicates" true
    (Runtime.dedup_hits rt > 0);
  Alcotest.(check bool) "transactions resolved" true (!submitted <> []);
  (* The E20 audit, from the store histories alone: no staged residue,
     no mixed marks, and no acknowledged commit recorded rolled back. *)
  Alcotest.(check (list string))
    "every transaction all-committed or all-compensated" []
    (Txn.audit (System.site sys 0).System.storage ~submitted:!submitted
       ~acked:!committed_ids)
      .Txn.violations;
  Alcotest.(check (list string)) "no orphaned prepare locks" []
    (Txn.held_locks sys ctx objects);
  (* No transaction remains in doubt on any live coordinator. *)
  Array.iteri
    (fun i co ->
      Alcotest.(check (list string))
        (Printf.sprintf "coordinator %d has nothing in doubt" i)
        [] (Txn.in_doubt sys ctx co))
    coords

let () =
  Alcotest.run "soak"
    [
      ("day in the life", [ Alcotest.test_case "soak" `Slow test_soak ]);
      ( "recovery churn",
        [ Alcotest.test_case "churn" `Slow test_recovery_churn ] );
      ( "txn churn",
        [ Alcotest.test_case "atomicity under chaos" `Slow test_txn_churn ] );
    ]
