(* E20 — atomic multi-object invocations under fault schedules, and the
   transaction fixture and atomicity audit every E20-style workload
   shares. See txn.mli. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Prng = Legion_util.Prng
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Network = Legion_net.Network
module Engine = Legion_sim.Engine
module Recorder = Legion_obs.Recorder
module Persistent = Legion_store.Persistent
module Participant = Legion_txn.Participant
module Coordinator = Legion_txn.Coordinator
module Std_parts = Legion_objects.Std_parts

(* --- The fixture. --- *)

let step dst d =
  Value.Record
    [
      ("dst", Loid.to_value dst);
      ("meth", Value.Str "Increment");
      ("args", Value.List [ Value.Int d ]);
      ("cmeth", Value.Str "Increment");
      ("cargs", Value.List [ Value.Int (-d) ]);
    ]

let host_of sys loid =
  let rt = System.rt sys in
  List.find_opt
    (fun h ->
      List.exists
        (fun p -> Loid.equal (Runtime.proc_loid p) loid)
        (Runtime.procs_on_host rt h))
    (Network.hosts (System.net sys))

let create_coordinator sys ctx ~cls =
  let infra = System.infra_hosts sys in
  let rec place attempts =
    let co = Api.create_object_exn sys ctx ~cls ~eager:true () in
    match host_of sys co with
    | Some h when not (List.mem h infra) -> (co, Some h)
    | found -> if attempts >= 16 then (co, found) else place (attempts + 1)
  in
  place 0

(* --- The audit. --- *)

type audit = { committed : int; compensated : int; violations : string list }

let audit store ~submitted ~acked =
  let marks = Hashtbl.create 64 in
  List.iter
    (fun loid ->
      List.iter
        (fun (e : Persistent.History.entry) ->
          Option.iter
            (fun id ->
              Hashtbl.replace marks id
                (e.mark :: Option.value ~default:[] (Hashtbl.find_opt marks id)))
            e.txn)
        (Persistent.history store ~loid))
    (Persistent.history_loids store);
  let has id m =
    List.mem m (Option.value ~default:[] (Hashtbl.find_opt marks id))
  in
  let ids =
    List.sort_uniq String.compare
      (Hashtbl.fold (fun id _ acc -> id :: acc) marks submitted)
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let committed = ref 0 and compensated = ref 0 in
  List.iter
    (fun id ->
      if has id Persistent.Staged then
        violate "txn %s left staged entries (partial commit)" id;
      let c = has id Persistent.Committed
      and x = has id Persistent.Compensated in
      if c && x then
        violate "txn %s has mixed commit/compensate marks (partial commit)" id;
      if c then incr committed;
      if x then incr compensated)
    ids;
  List.iter
    (fun id ->
      if has id Persistent.Compensated then
        violate "acknowledged commit %s recorded as compensated" id)
    (List.sort_uniq String.compare acked);
  {
    committed = !committed;
    compensated = !compensated;
    violations = List.rev !violations;
  }

let held_locks sys ctx participants =
  List.concat
    (List.mapi
       (fun i p ->
         match Api.call sys ctx ~dst:p ~meth:"TxnHeld" ~args:[] with
         | Ok (Value.List []) -> []
         | Ok (Value.List (Value.Str t :: _)) ->
             [ Printf.sprintf "participant %d holds an orphaned lock (%s)" i t ]
         | Ok v ->
             [
               Printf.sprintf "participant %d odd TxnHeld reply %s" i
                 (Value.to_string v);
             ]
         | Error e ->
             [
               Printf.sprintf "participant %d unreachable: %s" i
                 (Err.to_string e);
             ])
       (Array.to_list participants))

let in_doubt sys ctx co =
  match Api.call sys ctx ~dst:co ~meth:"TxnStats" ~args:[] with
  | Ok (Value.Record fields) -> (
      match List.assoc_opt "indoubt" fields with
      | Some (Value.Int 0) -> []
      | Some (Value.Int n) ->
          [ Printf.sprintf "%d transactions still in doubt" n ]
      | _ -> [ "TxnStats missing indoubt" ])
  | Ok v -> [ Printf.sprintf "odd TxnStats reply %s" (Value.to_string v) ]
  | Error e ->
      [ Printf.sprintf "coordinator unreachable: %s" (Err.to_string e) ]

(* --- The E20 scenario. --- *)

type schedule = Clean | Crash_participant | Crash_coordinator | Partition | Shed

let schedules = [ Clean; Crash_participant; Crash_coordinator; Partition; Shed ]

let schedule_name = function
  | Clean -> "clean"
  | Crash_participant -> "crash-participant"
  | Crash_coordinator -> "crash-coordinator"
  | Partition -> "partition"
  | Shed -> "shed"

type mode = Mix | Two_phase | Saga

type config = { seed : int64; rounds : int; schedule : schedule; mode : mode }

let default = { seed = 53L; rounds = 30; schedule = Clean; mode = Mix }

type report = {
  cfg : config;
  submitted : int;
  committed : int;
  compensated : int;
  resumes : int;
  prepares : int;
  crashes : int;
  partitions : int;
  setup : string list;
  partial : string list;
  orphaned : string list;
  doubt : string list;
  deterministic : bool;  (* a re-run gave the same [to_json] *)
}

let n_participants = 6
let call_timeout = 0.5

let run_once cfg =
  Std_parts.register_counter ();
  let sys =
    System.boot ~seed:cfg.seed
      ~rt_config:{ Runtime.default_config with call_timeout; max_rebinds = 4 }
      ~sites:[ ("a", 3); ("b", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let net = System.net sys and rt = System.rt sys and obs = System.obs sys in
  let part_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"TxnCounter"
      ~units:[ Std_parts.counter_unit; Participant.unit_name ]
      ()
  in
  let coord_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"TxnCoordinator" ~units:[ Coordinator.unit_name ] ()
  in
  let infra = System.infra_hosts sys in
  let participants =
    Array.init n_participants (fun _ ->
        Api.create_object_exn sys ctx ~cls:part_cls ~eager:true ())
  in
  (* The coordinator must live off the infrastructure hosts so the
     coordinator-crash schedule can kill it without beheading the
     Jurisdiction (magistrates are externally started, §4.2.1). *)
  let co, coord_host = create_coordinator sys ctx ~cls:coord_cls in
  let setup =
    (match coord_host with
    | Some _ -> []
    | None -> [ "coordinator placement not found" ])
    @
    match
      Api.call sys ctx ~dst:co ~meth:"Configure"
        ~args:[ Value.Record [ ("store", Value.Str "a") ] ]
    with
    | Ok _ -> []
    | Error e -> [ "Configure failed: " ^ Err.to_string e ]
  in
  let t0 = System.now sys in
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(t0 +. (float_of_int cfg.rounds +. 170.0))
    ();
  System.run_for sys 2.0;
  let resumes0 = Recorder.count obs "Resume"
  and prepares0 = Recorder.count obs "Prepare" in
  let prng = Prng.create ~seed:(Int64.add cfg.seed 5L) in
  let submitted = ref [] and acked = ref [] in
  let crashes = ref 0 and partitions = ref 0 in
  let submit ?(async = false) ?mode pair_i pair_j =
    let mode =
      match (mode, cfg.mode) with
      | Some m, _ -> m
      | None, Mix -> if Prng.bernoulli prng ~p:0.5 then "2pc" else "saga"
      | None, Two_phase -> "2pc"
      | None, Saga -> "saga"
    in
    let d = 1 + Prng.int prng 5 in
    let args =
      [
        Value.Str mode;
        Value.List [ step participants.(pair_i) d; step participants.(pair_j) d ];
      ]
    in
    let on_reply = function
      | Ok (Value.Str id) ->
          submitted := id :: !submitted;
          acked := id :: !acked
      | Ok _ -> ()
      | Error (Err.Txn_aborted { txn }) -> submitted := txn :: !submitted
      | Error _ -> () (* outcome resolved from the histories *)
    in
    if async then Runtime.invoke ctx ~dst:co ~meth:"TxnRun" ~args on_reply
    else on_reply (Api.call sys ctx ~dst:co ~meth:"TxnRun" ~args)
  in
  let crash_host h =
    Runtime.power_fail rt h;
    incr crashes;
    ignore
      (Engine.schedule (System.sim sys) ~delay:6.0 (fun () ->
           Network.set_host_up net h true))
  in
  for round = 1 to cfg.rounds do
    (match cfg.schedule with
    | Shed ->
        (* Contention: three overlapping transactions racing for the
           same participant pair; prepare locks shed the losers, the
           runtime's backoff retries them after the holder resolves. *)
        submit ~async:true 0 1;
        submit ~async:true 1 0;
        submit ~async:true 0 1
    | _ ->
        let i = Prng.int prng n_participants in
        let j =
          (i + 1 + Prng.int prng (n_participants - 1)) mod n_participants
        in
        (* The coordinator-crash round must be a 2PC transaction: only
           2PC has a Committing window (decision durable, acks pending)
           for the crash to strand and recovery to resume; a saga at
           this point is already fully applied. *)
        if cfg.schedule = Crash_coordinator && round = 10 then
          submit ~mode:"2pc" i j
        else submit i j);
    (match cfg.schedule with
    | Crash_participant when round = 8 || round = 18 ->
        let candidates =
          List.filter
            (fun h ->
              (not (List.mem h infra))
              && Some h <> coord_host && Network.host_is_up net h)
            (Network.hosts net)
        in
        if candidates <> [] then
          crash_host
            (List.nth candidates (Prng.int prng (List.length candidates)))
    | Crash_coordinator when round = 10 ->
        (* The synchronous submit above already acknowledged a commit;
           killing the coordinator now leaves that decision only in its
           durable WAL. Recovery must resume it. *)
        Option.iter crash_host coord_host
    | Partition when round = 10 || round = 20 ->
        Network.set_partitioned net 0 1 true;
        incr partitions;
        ignore
          (Engine.schedule (System.sim sys) ~delay:2.0 (fun () ->
               Network.set_partitioned net 0 1 false))
    | _ -> ());
    System.run_for sys 1.0
  done;
  (* Heal and drain: reactivations, TxnResume, redrives. *)
  List.iter (fun h -> Network.set_host_up net h true) (Network.hosts net);
  Network.set_partitioned net 0 1 false;
  System.run_for sys 60.0;
  System.run sys;
  let a =
    audit (System.site sys 0).System.storage ~submitted:!submitted
      ~acked:!acked
  in
  let orphaned = held_locks sys ctx participants in
  let doubt = in_doubt sys ctx co in
  {
    cfg;
    submitted = List.length (List.sort_uniq String.compare !submitted);
    committed = a.committed;
    compensated = a.compensated;
    resumes = Recorder.count obs "Resume" - resumes0;
    prepares = Recorder.count obs "Prepare" - prepares0;
    crashes = !crashes;
    partitions = !partitions;
    setup;
    partial = a.violations;
    orphaned;
    doubt;
    deterministic = true;
  }

let violations r =
  let resumed =
    if r.cfg.schedule = Crash_coordinator && r.resumes = 0 then
      [ "no Resume traced after recovery" ]
    else []
  in
  let rerun =
    if r.deterministic then []
    else
      [ Printf.sprintf "report not byte-deterministic for seed %Ld" r.cfg.seed ]
  in
  List.map
    (Printf.sprintf "E20/%s: %s" (schedule_name r.cfg.schedule))
    (r.setup @ r.partial @ r.orphaned @ r.doubt @ resumed @ rerun)

let to_json r =
  Printf.sprintf
    "{\"schedule\":%S,\"acked\":%d,\"committed\":%d,\"compensated\":%d,\
     \"resumes\":%d,\"prepares\":%d,\"crashes\":%d,\"partitions\":%d,\
     \"in_doubt\":%d,\"partial_commits\":%d,\"orphaned_locks\":%d}"
    (schedule_name r.cfg.schedule)
    r.submitted r.committed r.compensated r.resumes r.prepares r.crashes
    r.partitions (List.length r.doubt) (List.length r.partial)
    (List.length r.orphaned)

let run cfg =
  let r = run_once cfg in
  { r with deterministic = String.equal (to_json r) (to_json (run_once cfg)) }

let print_table = function
  | [] -> ()
  | first :: _ as reports ->
      Legion_util.Table.print
        ~title:
          (Printf.sprintf
             "E20  Atomic multi-object invocations under fault schedules (%d \
              rounds, seed %Ld; gates: 0 partial commits, 0 orphaned locks, \
              0 in doubt, byte-deterministic)"
             first.cfg.rounds first.cfg.seed)
        ~header:
          [
            "schedule"; "acked"; "committed"; "compensated"; "resumes";
            "prepares"; "crashes"; "partitions";
          ]
        (List.map
           (fun r ->
             List.map string_of_int
               [
                 r.submitted; r.committed; r.compensated; r.resumes;
                 r.prepares; r.crashes; r.partitions;
               ]
             |> List.cons (schedule_name r.cfg.schedule))
           reports)
