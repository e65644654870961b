(* The chaos explorer: one schedule = one fresh Legion, three composed
   workloads, a fault program applied at round boundaries, then a
   global invariant audit. Violations are collected, never raised, so
   the shrinker can re-run candidate schedules cheaply. The E22 gate
   runs a seeded fleet of schedules plus a duplication-heavy pair. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Prng = Legion_util.Prng
module Sampler = Legion_util.Sampler
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Network = Legion_net.Network
module Participant = Legion_txn.Participant
module Coordinator = Legion_txn.Coordinator
module Group_part = Legion_repl.Group_part
module Engine = Legion_sim.Engine
module System = Legion.System
module Api = Legion.Api
module Txn = Legion.Txn

(* --- The probe application: a non-idempotent ledger. ---------------

   Every [Apply op d] records the op id, so a re-executed effect is
   visible afterwards as a multiplicity in the [Ledger] reply. Clients
   drive it with [max_rebinds = 0] (rebinds mint fresh call ids — the
   documented at-least-once residue), which makes the runtime's
   exactly-once dedup cache the one and only defence against the
   network's retransmissions and injected duplicates. [Increment] is
   the idempotence-free arithmetic used by transaction steps and group
   fan-out, where the surrounding machinery owns duplicate defence. *)

let ledger_unit = "chaos.ledger"

let ledger_factory (_ctx : Runtime.ctx) : Impl.part =
  let total = ref 0 in
  let ops = ref [] in
  let apply _ctx args _env k =
    match args with
    | [ Value.Str op; Value.Int d ] ->
        total := !total + d;
        ops := op :: !ops;
        k (Ok (Value.Int !total))
    | _ -> Impl.bad_args k "Apply expects (op: str, d: int)"
  in
  let increment _ctx args _env k =
    match args with
    | [ Value.Int d ] ->
        total := !total + d;
        k (Ok (Value.Int !total))
    | _ -> Impl.bad_args k "Increment expects one int"
  in
  let get _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int !total))
    | _ -> Impl.bad_args k "Get takes no arguments"
  in
  let ledger _ctx args _env k =
    match args with
    | [] ->
        k (Ok (Value.List (List.rev_map (fun s -> Value.Str s) !ops)))
    | _ -> Impl.bad_args k "Ledger takes no arguments"
  in
  Impl.part
    ~methods:
      [
        ("Apply", apply);
        ("Increment", increment);
        ("Get", get);
        ("Ledger", ledger);
      ]
    ~save:(fun () ->
      Value.Record
        [
          ("total", Value.Int !total);
          ("ops", Value.List (List.rev_map (fun s -> Value.Str s) !ops));
        ])
    ~restore:(fun v ->
      match v with
      | Value.Record fields -> (
          match
            (List.assoc_opt "total" fields, List.assoc_opt "ops" fields)
          with
          | Some (Value.Int t), Some (Value.List l) ->
              total := t;
              ops :=
                List.rev_map
                  (function Value.Str s -> s | _ -> "?")
                  l;
              Ok ()
          | _ -> Error "ledger state must be {total: int, ops: list<str>}")
      | _ -> Error "ledger state must be a record")
    ledger_unit

let register_units () =
  Impl.register ledger_unit ledger_factory;
  Group_part.register ()

(* --- One schedule's outcome. ---------------------------------------- *)

type outcome = {
  violations : string list;
  ledger_acked : int;
  ledger_recorded : int;
  double_applies : int;
  dedup_hits : int;
  txns_acked : int;
  txns_committed : int;
  txns_compensated : int;
  group_acked : int;
  duplicated : int;
  reordered : int;
  corrupted : int;
  dropped : int;
  drops_corrupt : int;
  crashes : int;
}

let failed r = r.violations <> []

(* --- Scenario constants. ------------------------------------------- *)

let n_ledgers = 4
let n_participants = 3
let n_members = 3
let ops_per_round = 4
let call_timeout = 0.5
let revive_delay = 6.0

let run_schedule ?(dedup = true) (sch : Schedule.t) =
  register_units ();
  let sys =
    System.boot ~seed:sch.Schedule.seed
      ~rt_config:
        {
          Runtime.default_config with
          call_timeout;
          max_rebinds = 4;
          dedup_capacity = (if dedup then Some 4096 else None);
        }
      ~sites:[ ("a", 3); ("b", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let net = System.net sys and rt = System.rt sys in
  let sim = System.sim sys in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  (* Classes: plain ledgers, transactional participants (ledger +
     participant units), a coordinator, and a group head. *)
  let ledger_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"ChaosLedger" ~units:[ ledger_unit ] ()
  in
  let part_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"ChaosTxnLedger"
      ~units:[ ledger_unit; Participant.unit_name ]
      ()
  in
  let coord_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"ChaosCoordinator" ~units:[ Coordinator.unit_name ] ()
  in
  let group_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"ChaosGroup" ~units:[ Group_part.unit_name ] ()
  in
  let infra = System.infra_hosts sys in
  let work_hosts =
    List.filter (fun h -> not (List.mem h infra)) (Network.hosts net)
  in
  let ledgers =
    Array.init n_ledgers (fun _ ->
        Api.create_object_exn sys ctx ~cls:ledger_cls ~eager:true ())
  in
  let participants =
    Array.init n_participants (fun _ ->
        Api.create_object_exn sys ctx ~cls:part_cls ~eager:true ())
  in
  (* Keep the coordinator off the infrastructure hosts (same reasoning
     as E20: a crash action must not behead the Jurisdiction). *)
  let coord, _ = Txn.create_coordinator sys ctx ~cls:coord_cls in
  (match
     Api.call sys ctx ~dst:coord ~meth:"Configure"
       ~args:[ Value.Record [ ("store", Value.Str "a") ] ]
   with
  | Ok _ -> ()
  | Error e -> violate "coordinator Configure failed: %s" (Err.to_string e));
  let members =
    Array.init n_members (fun _ ->
        Api.create_object_exn sys ctx ~cls:ledger_cls ~eager:true ())
  in
  let group = Api.create_object_exn sys ctx ~cls:group_cls ~eager:true () in
  Array.iter
    (fun m ->
      match
        Api.call sys ctx ~dst:group ~meth:"AddMember"
          ~args:[ Loid.to_value m ]
      with
      | Ok _ -> ()
      | Error e -> violate "group AddMember failed: %s" (Err.to_string e))
    members;
  List.iter
    (fun (meth, args) ->
      match Api.call sys ctx ~dst:group ~meth ~args with
      | Ok _ -> ()
      | Error e -> violate "group %s failed: %s" meth (Err.to_string e))
    [
      ("SetMode", [ Value.Str "quorum" ]);
      ("SetFenced", [ Value.Bool true ]);
    ];
  let t0 = System.now sys in
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(t0 +. float_of_int sch.Schedule.rounds +. 120.0)
    ();
  System.run_for sys 2.0;
  (* Epoch monotonicity watch: every tracked object's binding epoch
     must never decrease. *)
  let tracked =
    Array.concat
      [ ledgers; participants; [| coord |]; members; [| group |] ]
  in
  let epochs = Array.map (fun l -> Runtime.current_epoch rt l) tracked in
  let check_epochs where =
    Array.iteri
      (fun i l ->
        let e = Runtime.current_epoch rt l in
        if e < epochs.(i) then
          violate "epoch of %s went backwards (%d -> %d) at %s"
            (Loid.to_string l) epochs.(i) e where;
        epochs.(i) <- max epochs.(i) e)
      tracked
  in
  let prng = Prng.create ~seed:(Int64.add sch.Schedule.seed 11L) in
  let pick_ledger =
    match sch.Schedule.workload with
    | Schedule.Uniform -> fun () -> Prng.int prng n_ledgers
    | Schedule.Zipf ->
        let z = Sampler.zipf prng ~n:n_ledgers ~s:1.1 in
        fun () -> Sampler.zipf_draw z mod n_ledgers
  in
  let ledger_acked = ref 0 in
  let txns_acked = ref [] and submitted = ref [] in
  let group_acked = ref 0 in
  let crashes = ref 0 in
  let crash_action ~power idx =
    incr crashes;
    let h = List.nth work_hosts (idx mod List.length work_hosts) in
    if Network.host_is_up net h then
      if power then Runtime.power_fail rt h
      else Network.set_host_up net h false;
    ignore
      (Engine.schedule sim ~delay:revive_delay (fun () ->
           Network.set_host_up net h true))
  in
  let apply_action (a : Schedule.action) =
    match a with
    | Schedule.Crash i -> crash_action ~power:false i
    | Schedule.Power_fail i -> crash_action ~power:true i
    | Schedule.Partition cut -> Network.set_partitioned net 0 1 cut
    | Schedule.Drop r -> Network.set_drop_rate net r
    | Schedule.Duplicate r -> Network.set_duplicate_rate net r
    | Schedule.Corrupt r -> Network.set_corrupt_rate net r
    | Schedule.Reorder (rate, window) -> Network.set_reorder net ~rate ~window
    | Schedule.Delay_spike (factor, duration) ->
        Network.set_delay_spike net ~a:0 ~b:1 ~factor
          ~until_:(System.now sys +. duration)
  in
  for round = 1 to sch.Schedule.rounds do
    List.iter
      (fun (s : Schedule.step) -> if s.at = round then apply_action s.action)
      sch.Schedule.steps;
    (* Ledger traffic: non-idempotent ops, never rebound. *)
    for k = 1 to ops_per_round do
      let dst = ledgers.(pick_ledger ()) in
      let op = Printf.sprintf "op-r%d-%d" round k in
      Runtime.invoke ctx ~max_rebinds:0 ~dst ~meth:"Apply"
        ~args:[ Value.Str op; Value.Int 1 ]
        (function Ok _ -> incr ledger_acked | Error _ -> ())
    done;
    (* One transaction per round over a random participant pair. *)
    let i = Prng.int prng n_participants in
    let j = (i + 1 + Prng.int prng (n_participants - 1)) mod n_participants in
    let mode = if Prng.bernoulli prng ~p:0.5 then "2pc" else "saga" in
    let d = 1 + Prng.int prng 5 in
    Runtime.invoke ctx ~dst:coord ~meth:"TxnRun"
      ~args:
        [
          Value.Str mode;
          Value.List
            [ Txn.step participants.(i) d; Txn.step participants.(j) d ];
        ]
      (function
        | Ok (Value.Str id) ->
            submitted := id :: !submitted;
            txns_acked := id :: !txns_acked
        | Ok _ -> ()
        | Error (Err.Txn_aborted { txn }) -> submitted := txn :: !submitted
        | Error _ -> ());
    (* One fenced quorum write per round. *)
    Runtime.invoke ctx ~dst:group ~meth:"Invoke"
      ~args:[ Value.Str "Increment"; Value.List [ Value.Int 1 ] ]
      (function Ok _ -> incr group_acked | Error _ -> ());
    System.run_for sys 1.0;
    check_epochs (Printf.sprintf "round %d" round)
  done;
  (* Heal everything and drain: revivals, reactivations, TxnResume. *)
  List.iter (fun h -> Network.set_host_up net h true) (Network.hosts net);
  Network.set_partitioned net 0 1 false;
  Network.set_drop_rate net 0.0;
  Network.set_duplicate_rate net 0.0;
  Network.set_corrupt_rate net 0.0;
  Network.set_reorder net ~rate:0.0 ~window:0.0;
  Network.clear_delay_spikes net;
  System.run_for sys 20.0;
  (* Poke the coordinator so any in-doubt transaction whose redrive
     chain died with a deactivated incarnation finishes or rolls back
     before the atomicity audit samples the marks. *)
  ignore (Api.call sys ctx ~dst:coord ~meth:"TxnResume" ~args:[]);
  System.run_for sys 10.0;
  (* Anti-entropy after the storm, then quiesce. Keep sweeping while
     any member is still divergent — a push can fail transiently right
     after heal, and the protocol is specified as repeated sweeps
     draining the divergence count to zero. *)
  let rec reconcile n =
    match Api.call sys ctx ~dst:group ~meth:"Reconcile" ~args:[] with
    | Ok (Value.Record fields)
      when n > 1
           && (match List.assoc_opt "divergent" fields with
              | Some (Value.Int d) -> d > 0
              | _ -> false) ->
        System.run_for sys 2.0;
        reconcile (n - 1)
    | Ok _ -> None
    | Error _ when n > 1 ->
        System.run_for sys 5.0;
        reconcile (n - 1)
    | Error e -> Some (Err.to_string e)
  in
  (match reconcile 6 with
  | None -> ()
  | Some e -> violate "group Reconcile failed after heal: %s" e);
  System.run_for sys 5.0;
  System.run sys;
  check_epochs "quiescence";
  (* --- Audit 1: no double-applied effect, and post-heal liveness of
     every ledger. Op ids are globally unique and never rebound, so any
     multiplicity above one is a duplicated execution. *)
  let op_counts = Hashtbl.create 256 in
  Array.iteri
    (fun i l ->
      (match Api.call sys ctx ~dst:l ~meth:"Get" ~args:[] with
      | Ok _ -> ()
      | Error e ->
          violate "ledger %d dead after heal: %s" i (Err.to_string e));
      match Api.call sys ctx ~dst:l ~meth:"Ledger" ~args:[] with
      | Ok (Value.List ops) ->
          List.iter
            (function
              | Value.Str op ->
                  Hashtbl.replace op_counts op
                    (1 + Option.value ~default:0 (Hashtbl.find_opt op_counts op))
              | _ -> violate "ledger %d returned a non-string op" i)
            ops
      | Ok v ->
          violate "ledger %d odd Ledger reply %s" i (Value.to_string v)
      | Error e ->
          violate "ledger %d Ledger failed: %s" i (Err.to_string e))
    ledgers;
  let recorded = Hashtbl.length op_counts in
  let doubles =
    Hashtbl.fold (fun op n acc -> if n > 1 then (op, n) :: acc else acc)
      op_counts []
    |> List.sort compare
  in
  List.iter (fun (op, n) -> violate "op %s applied %d times" op n) doubles;
  (* --- Audit 2: transactional atomicity from the store histories
     (the E20 gates, reported instead of raised). *)
  let atomicity =
    Txn.audit (System.site sys 0).System.storage ~submitted:!submitted
      ~acked:!txns_acked
  in
  List.iter (violate "%s") atomicity.Txn.violations;
  (* --- Audit 3: no orphaned prepare locks, nothing in doubt. *)
  List.iter (violate "%s") (Txn.held_locks sys ctx participants);
  List.iter (violate "%s") (Txn.in_doubt sys ctx coord);
  (* --- Audit 4: no split-brain drift on the fenced group. *)
  let member_values =
    Array.to_list
      (Array.mapi
         (fun i m ->
           match Api.call sys ctx ~dst:m ~meth:"Get" ~args:[] with
           | Ok (Value.Int v) -> Some v
           | Ok v ->
               violate "member %d odd Get reply %s" i (Value.to_string v);
               None
           | Error e ->
               violate "member %d dead after heal: %s" i (Err.to_string e);
               None)
         members)
  in
  (match List.filter_map Fun.id member_values with
  | [] -> ()
  | v0 :: vs ->
      if List.exists (fun v -> v <> v0) vs then
        violate "group members diverged after Reconcile: %s"
          (String.concat ","
             (List.map
                (function Some v -> string_of_int v | None -> "?")
                member_values)));
  (* --- Audit 5: the group head itself answers. *)
  (match Api.call sys ctx ~dst:group ~meth:"GetEpoch" ~args:[] with
  | Ok _ -> ()
  | Error e -> violate "group head dead after heal: %s" (Err.to_string e));
  let causes = Network.drop_causes net in
  {
    violations = List.rev !violations;
    ledger_acked = !ledger_acked;
    ledger_recorded = recorded;
    double_applies = List.length doubles;
    dedup_hits = Runtime.dedup_hits rt;
    txns_acked = List.length (List.sort_uniq String.compare !txns_acked);
    txns_committed = atomicity.Txn.committed;
    txns_compensated = atomicity.Txn.compensated;
    group_acked = !group_acked;
    duplicated = Network.messages_duplicated net;
    reordered = Network.messages_reordered net;
    corrupted = Network.messages_corrupted net;
    dropped = Network.messages_dropped net;
    drops_corrupt = causes.Network.by_corruption;
    crashes = !crashes;
  }

(* --- Shrinking: greedy single-step delta debugging. ---------------- *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let shrink ?dedup (sch : Schedule.t) (rep : outcome) =
  if not (failed rep) then (sch, rep)
  else begin
    let current = ref sch and currep = ref rep in
    let progress = ref true in
    while !progress do
      progress := false;
      let steps = !current.Schedule.steps in
      let n = List.length steps in
      let i = ref 0 in
      while (not !progress) && !i < n do
        let cand = { !current with Schedule.steps = drop_nth steps !i } in
        let r = run_schedule ?dedup cand in
        if failed r then begin
          current := cand;
          currep := r;
          progress := true
        end
        else incr i
      done
    done;
    (!current, !currep)
  end

(* --- Reporting. ----------------------------------------------------- *)

let outcome_json (sch : Schedule.t) (r : outcome) =
  Printf.sprintf
    "{\"seed\":%Ld,\"workload\":%S,\"rounds\":%d,\"steps\":%d,\
     \"ledger_acked\":%d,\"ledger_recorded\":%d,\"double_applies\":%d,\
     \"dedup_hits\":%d,\"txns_acked\":%d,\"txns_committed\":%d,\
     \"txns_compensated\":%d,\"group_acked\":%d,\"duplicated\":%d,\
     \"reordered\":%d,\"corrupted\":%d,\"dropped\":%d,\"drops_corrupt\":%d,\
     \"crashes\":%d,\"violations\":[%s]}"
    sch.Schedule.seed
    (match sch.Schedule.workload with
    | Schedule.Uniform -> "uniform"
    | Schedule.Zipf -> "zipf")
    sch.Schedule.rounds
    (List.length sch.Schedule.steps)
    r.ledger_acked r.ledger_recorded r.double_applies r.dedup_hits
    r.txns_acked r.txns_committed r.txns_compensated r.group_acked
    r.duplicated r.reordered r.corrupted r.dropped r.drops_corrupt r.crashes
    (String.concat "," (List.map (Printf.sprintf "%S") r.violations))

(* --- The E22 gate. --------------------------------------------------- *)

type config = { seed : int64; schedules : int; rounds : int }

let default = { seed = 61L; schedules = 200; rounds = 16 }

type report = {
  cfg : config;
  failures : (int * Schedule.t * outcome) list;
  nondeterministic : (int * string * string) list;
  samples : string list;
  dup_on : outcome;
  dup_off : outcome;
  dup_deterministic : bool;
  shrunk : (Schedule.t * outcome) option;
  wall_s : float;
}

(* Lots of duplicates and some loss, but no crashes or partitions, so a
   double apply can only come from duplicate execution — never from
   recovery replay — and the dedup-off run is a clean detector. *)
let dup_heavy ~seed =
  {
    Schedule.seed;
    workload = Schedule.Uniform;
    rounds = 12;
    steps =
      [
        { Schedule.at = 1; action = Schedule.Duplicate 0.4 };
        { Schedule.at = 1; action = Schedule.Drop 0.08 };
        { Schedule.at = 6; action = Schedule.Reorder (0.3, 0.02) };
      ];
  }

let run cfg =
  let failures = ref [] and nondeterministic = ref [] and samples = ref [] in
  let t0 = Unix.gettimeofday () in
  for i = 1 to cfg.schedules do
    let sch =
      Schedule.generate ~rounds:cfg.rounds
        ~seed:(Int64.add cfg.seed (Int64.of_int i))
        ()
    in
    let o = run_schedule sch in
    let row = outcome_json sch o in
    if failed o then failures := (i, sch, o) :: !failures;
    let row' = outcome_json sch (run_schedule sch) in
    if not (String.equal row row') then
      nondeterministic := (i, row, row') :: !nondeterministic;
    if i <= 10 || i mod 25 = 0 then samples := row :: !samples
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let dup = dup_heavy ~seed:(Int64.add cfg.seed 9000L) in
  let dup_on = run_schedule dup in
  let dup_off = run_schedule ~dedup:false dup in
  let dup_on' = run_schedule dup in
  let shrunk =
    match List.rev !failures with
    | (_, sch, o) :: _ -> Some (shrink sch o)
    | [] when failed dup_on -> Some (shrink dup dup_on)
    | [] -> None
  in
  {
    cfg;
    failures = List.rev !failures;
    nondeterministic = List.rev !nondeterministic;
    samples = List.rev !samples;
    dup_on;
    dup_off;
    dup_deterministic =
      String.equal (outcome_json dup dup_on) (outcome_json dup dup_on');
    shrunk;
    wall_s;
  }

let violations r =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := ("E22: " ^ m) :: !violations) fmt
  in
  List.iter
    (fun (i, (sch : Schedule.t), o) ->
      violate "schedule %d (seed %Ld) violated invariants: %s" i
        sch.Schedule.seed
        (String.concat "; " o.violations))
    r.failures;
  List.iter
    (fun (i, row, row') ->
      violate "schedule %d nondeterministic: %s vs %s" i row row')
    r.nondeterministic;
  if failed r.dup_on then
    violate "dup-heavy schedule failed with dedup ON: %s"
      (String.concat "; " r.dup_on.violations);
  if r.dup_on.dedup_hits = 0 then
    violate "dup-heavy schedule recorded no dedup hits";
  if r.dup_on.duplicated = 0 then
    violate "dup-heavy schedule injected no duplicates";
  if r.dup_off.double_applies = 0 then
    violate
      "dedup OFF failed to detect double applies under duplication \
       (detector is blind)";
  if not r.dup_deterministic then violate "dup-heavy schedule nondeterministic";
  List.rev !violations

let to_json r =
  let dup = dup_heavy ~seed:(Int64.add r.cfg.seed 9000L) in
  Printf.sprintf
    "{\"experiment\":\"e22\",\"seed\":%Ld,\"schedules\":%d,\"rounds\":%d,\
     \"violations\":%d,\"dup_heavy_on\":%s,\"dup_heavy_off\":%s,\
     \"sample_rows\":[%s]}"
    r.cfg.seed r.cfg.schedules r.cfg.rounds (List.length r.failures)
    (outcome_json dup r.dup_on) (outcome_json dup r.dup_off)
    (String.concat "," r.samples)

let print r =
  let i = string_of_int in
  Legion_util.Table.print
    ~title:
      (Printf.sprintf
         "E22  Adversarial chaos exploration (%d schedules x %d rounds, seed \
          %Ld, %.1fs wall; gates: 0 violations, dedup ON absorbs / OFF \
          detects, byte-deterministic)"
         r.cfg.schedules r.cfg.rounds r.cfg.seed r.wall_s)
    ~header:[ "metric"; "dedup on"; "dedup off" ]
    [
      [ "schedules"; i r.cfg.schedules; "-" ];
      [ "fleet violations"; i (List.length r.failures); "-" ];
      [ "dup-heavy violations"; i (List.length r.dup_on.violations);
        i (List.length r.dup_off.violations) ];
      [ "double applies"; i r.dup_on.double_applies;
        i r.dup_off.double_applies ];
      [ "dedup hits"; i r.dup_on.dedup_hits; i r.dup_off.dedup_hits ];
      [ "duplicates injected"; i r.dup_on.duplicated; i r.dup_off.duplicated ];
      [ "ledger ops acked"; i r.dup_on.ledger_acked; i r.dup_off.ledger_acked ];
      [ "txns committed"; i r.dup_on.txns_committed;
        i r.dup_off.txns_committed ];
    ]

let artifact = "E22_FAILING_SCHEDULE.txt"

let write_artifact r =
  match r.shrunk with
  | None -> ()
  | Some (sch, _) ->
      Out_channel.with_open_text artifact (fun oc ->
          output_string oc (Schedule.to_string sch));
      Printf.eprintf
        "minimized failing schedule (%d steps) written to %s; replay it with \
         legion-sim chaos --replay %s\n"
        (List.length sch.Schedule.steps)
        artifact artifact
