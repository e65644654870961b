(* Atomic multi-object invocations (PR 8): 2PC and saga commit /
   abort / compensation, prepare-lock contention, epoch-fenced abort
   votes, the Persistent version-history invariants, and coordinator
   crash-recovery resuming a durable commit decision. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module Persistent = Legion_store.Persistent
module Disk = Legion_store.Disk
module Participant = Legion_txn.Participant
module Coordinator = Legion_txn.Coordinator
module Wal = Legion_txn.Wal
module System = Legion.System
module Api = Legion.Api
open Helpers

(* Transaction outcomes are protocol-shaped, not timing-shaped: they
   must hold for any boot seed. LEGION_TRACE_SEED (swept by test/dune)
   shifts every seed in the file. *)
let base_seed =
  match Sys.getenv_opt "LEGION_TRACE_SEED" with
  | Some s -> Int64.of_string s
  | None -> 23L

let boot ?(seed = base_seed) () = boot_two_sites ~seed ()

let counter_txn_units = [ counter_unit; Participant.unit_name ]

let derive_participant_class sys ctx =
  Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
    ~name:"TxnCounter" ~units:counter_txn_units ()

let derive_coord_class sys ctx =
  Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
    ~name:"TxnCoordinator" ~units:[ Coordinator.unit_name ] ()

let configure_store sys ctx co store =
  match
    Api.call sys ctx ~dst:co ~meth:"Configure"
      ~args:[ Value.Record [ ("store", Value.Str store) ] ]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "Configure failed: %s" (Err.to_string e)

let step ?(cmeth = "") ?(cargs = []) dst meth args =
  Value.Record
    [
      ("dst", Loid.to_value dst);
      ("meth", Value.Str meth);
      ("args", Value.List args);
      ("cmeth", Value.Str cmeth);
      ("cargs", Value.List cargs);
    ]

let txn_run sys ctx co ~mode steps =
  Api.call sys ctx ~dst:co ~meth:"TxnRun"
    ~args:[ Value.Str mode; Value.List steps ]

let get sys ctx o = int_exn (Api.call_exn sys ctx ~dst:o ~meth:"Get" ~args:[])

let held sys ctx o =
  match Api.call_exn sys ctx ~dst:o ~meth:"TxnHeld" ~args:[] with
  | Value.List [] -> None
  | Value.List [ Value.Str t ] -> Some t
  | v -> Alcotest.failf "TxnHeld: unexpected %s" (Value.to_string v)

(* The E20-style audit primitive: every history entry the txn wrote,
   across the given participants, carries the same final mark. *)
let check_marks store ~txn ~participants mark =
  List.iter
    (fun loid ->
      let entries =
        List.filter
          (fun (e : Persistent.History.entry) -> e.txn = Some txn)
          (Persistent.history store ~loid)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s has entries under %s" (Loid.to_string loid) txn)
        true (entries <> []);
      List.iter
        (fun (e : Persistent.History.entry) ->
          Alcotest.(check string)
            (Printf.sprintf "mark of %s v%d" (Loid.to_string loid) e.version)
            (Persistent.mark_name mark)
            (Persistent.mark_name e.mark))
        entries)
    participants

let stat sys ctx co name =
  match Api.call_exn sys ctx ~dst:co ~meth:"TxnStats" ~args:[] with
  | Value.Record fields -> (
      match List.assoc_opt name fields with
      | Some (Value.Int i) -> i
      | _ -> Alcotest.failf "TxnStats: missing %s" name)
  | v -> Alcotest.failf "TxnStats: unexpected %s" (Value.to_string v)

(* How many times the coordinator sent [meth] to each participant. *)
let calls_to obs mark meth participants =
  let events = Recorder.events_since obs mark in
  List.map (fun dst -> Trace.count_of (Trace.call ~dst ~meth ()) events)
    participants

(* A call at the coordinator right after a decision, while that
   decision's drive still waits for its acks. It must not drive the
   transaction a second time. *)
let poke sys ctx co = ignore (stat sys ctx co "indoubt")

(* --- 2PC: all-or-nothing over distinct participants --- *)

let test_two_phase_commit () =
  let sys = boot () in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let b = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let mark = Recorder.total obs in
  let id =
    match
      txn_run sys ctx co ~mode:"2pc"
        [
          step a "Increment" [ Value.Int 5 ];
          step b "Increment" [ Value.Int 7 ];
        ]
    with
    | Ok (Value.Str id) -> id
    | Ok v -> Alcotest.failf "TxnRun: unexpected %s" (Value.to_string v)
    | Error e -> Alcotest.failf "TxnRun failed: %s" (Err.to_string e)
  in
  (* Commit acknowledgements drain after the client reply. *)
  System.run_for sys 3.0;
  Alcotest.(check int) "a incremented" 5 (get sys ctx a);
  Alcotest.(check int) "b incremented" 7 (get sys ctx b);
  Alcotest.(check (option string)) "a lock released" None (held sys ctx a);
  Alcotest.(check (option string)) "b lock released" None (held sys ctx b);
  let store = (System.site sys 0).System.storage in
  check_marks store ~txn:id ~participants:[ a; b ] Persistent.Committed;
  Alcotest.(check int) "committed counter" 1 (stat sys ctx co "committed");
  Alcotest.(check int) "nothing in doubt" 0 (stat sys ctx co "indoubt");
  let events = Recorder.events_since obs mark in
  Alcotest.(check int) "both participants prepared" 2
    (Trace.count_of (Trace.prepare ~txn:id ()) events);
  Alcotest.(check bool) "commit traced" true
    (List.exists (Trace.txn_commit ~txn:id ()) events)

let test_two_phase_abort ~poked () =
  let sys = boot ~seed:(Int64.add base_seed 1L) () in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let b = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let mark = Recorder.total obs in
  let id =
    match
      txn_run sys ctx co ~mode:"2pc"
        [
          step a "Increment" [ Value.Int 5 ];
          (* b cannot stage an unknown method: a no vote at prepare,
             so the commit promise is never broken later. *)
          step b "NoSuchMethod" [];
        ]
    with
    | Error (Err.Txn_aborted { txn }) -> txn
    | Ok v -> Alcotest.failf "expected abort, got %s" (Value.to_string v)
    | Error e -> Alcotest.failf "expected Txn_aborted, got %s" (Err.to_string e)
  in
  if poked then poke sys ctx co;
  System.run_for sys 3.0;
  Alcotest.(check (list int)) "one TxnAbort per participant" [ 1; 1 ]
    (calls_to obs mark "TxnAbort" [ a; b ]);
  Alcotest.(check int) "a untouched" 0 (get sys ctx a);
  Alcotest.(check int) "b untouched" 0 (get sys ctx b);
  Alcotest.(check (option string)) "a lock released" None (held sys ctx a);
  Alcotest.(check (option string)) "b lock released" None (held sys ctx b);
  (* a voted yes, so its staged snapshot exists — and must end
     compensated, not staged. *)
  let store = (System.site sys 0).System.storage in
  check_marks store ~txn:id ~participants:[ a ] Persistent.Compensated;
  Alcotest.(check int) "aborted counter" 1 (stat sys ctx co "aborted");
  Alcotest.(check int) "nothing in doubt" 0 (stat sys ctx co "indoubt");
  let events = Recorder.events_since obs mark in
  Alcotest.(check bool) "abort traced with the vetoing reason" true
    (List.exists (Trace.txn_abort ~txn:id ~reason:"refused" ()) events);
  Alcotest.(check bool) "compensation traced" true
    (List.exists (Trace.compensate ~txn:id ()) events)

(* --- prepare locks: held, contended, shed as retryable --- *)

let test_prepare_lock_contention () =
  let sys = boot ~seed:(Int64.add base_seed 2L) () in
  let ctx = System.client sys () in
  let cls = derive_participant_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  (match
     Api.call sys ctx ~dst:a ~meth:"TxnPrepare"
       ~args:[ Value.Str "tA"; Value.Str "Increment"; Value.List [ Value.Int 1 ] ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first prepare failed: %s" (Err.to_string e));
  Alcotest.(check (option string)) "lock held by tA" (Some "tA") (held sys ctx a);
  (* Same txn again: idempotent yes (coordinator retransmission). *)
  (match
     Api.call sys ctx ~dst:a ~meth:"TxnPrepare"
       ~args:[ Value.Str "tA"; Value.Str "Increment"; Value.List [ Value.Int 1 ] ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "duplicate prepare failed: %s" (Err.to_string e));
  (* A competing txn is shed with the retryable lock rejection; the
     holder never resolves here, so the retry budget drains and the
     final reply still names the holder. *)
  (match
     Api.call sys ctx ~dst:a ~meth:"TxnPrepare"
       ~args:[ Value.Str "tB"; Value.Str "Increment"; Value.List [ Value.Int 2 ] ]
   with
  | Error (Err.Txn_locked { holder; retry_after }) ->
      Alcotest.(check string) "holder named" "tA" holder;
      Alcotest.(check bool) "retry hint positive" true (retry_after > 0.0)
  | Ok v -> Alcotest.failf "expected Txn_locked, got %s" (Value.to_string v)
  | Error e -> Alcotest.failf "expected Txn_locked, got %s" (Err.to_string e));
  Alcotest.(check bool) "lock rejection is retryable" true
    (Err.is_retryable (Err.Txn_locked { holder = "tA"; retry_after = 0.1 }));
  (* Abort releases; a second abort is an idempotent no-op. *)
  ignore (Api.call_exn sys ctx ~dst:a ~meth:"TxnAbort" ~args:[ Value.Str "tA" ]);
  ignore (Api.call_exn sys ctx ~dst:a ~meth:"TxnAbort" ~args:[ Value.Str "tA" ]);
  Alcotest.(check (option string)) "lock released" None (held sys ctx a);
  (* Commit with no lock: acknowledged, nothing applied. *)
  ignore (Api.call_exn sys ctx ~dst:a ~meth:"TxnCommit" ~args:[ Value.Str "tA" ]);
  Alcotest.(check int) "nothing applied" 0 (get sys ctx a)

(* --- a fenced participant votes abort, never hangs --- *)

(* A vote that is permanently fenced: the stub unit answers TxnPrepare
   with [Stale_epoch] no matter how often the runtime rebinds and
   retries, modelling a participant whose every reachable placement
   belongs to a superseded incarnation. Listed before the real
   Participant unit it shadows only the vote; abort acknowledgements
   still run the real idempotent path. *)
let fenced_unit = "test.fenced_vote"

let register_fenced_unit () =
  Legion_core.Impl.register fenced_unit (fun _ctx ->
      let prepare _ctx _args _env k = k (Error Err.Stale_epoch) in
      Legion_core.Impl.part ~methods:[ ("TxnPrepare", prepare) ] fenced_unit)

let test_fenced_participant_aborts () =
  let sys = boot ~seed:(Int64.add base_seed 3L) () in
  register_fenced_unit ();
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let cls = derive_participant_class sys ctx in
  let fenced_cls =
    Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
      ~name:"FencedCounter"
      ~units:(fenced_unit :: counter_txn_units)
      ()
  in
  let coord_cls = derive_coord_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let b = Api.create_object_exn sys ctx ~cls:fenced_cls ~eager:true () in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let mark = Recorder.total obs in
  let id =
    match
      txn_run sys ctx co ~mode:"2pc"
        [
          step a "Increment" [ Value.Int 5 ];
          step b "Increment" [ Value.Int 7 ];
        ]
    with
    | Error (Err.Txn_aborted { txn }) -> txn
    | Ok v -> Alcotest.failf "expected abort, got %s" (Value.to_string v)
    | Error e -> Alcotest.failf "expected Txn_aborted, got %s" (Err.to_string e)
  in
  System.run_for sys 3.0;
  Alcotest.(check int) "a untouched" 0 (get sys ctx a);
  Alcotest.(check (option string)) "a lock released" None (held sys ctx a);
  let events = Recorder.events_since obs mark in
  Alcotest.(check bool) "abort traced" true
    (List.exists (Trace.txn_abort ~txn:id ()) events);
  Alcotest.(check bool) "no commit traced" false
    (List.exists (Trace.txn_commit ~txn:id ()) events)

(* The complementary case: a live participant whose placement is merely
   a superseded incarnation (epoch bumped, nobody reactivated) is not a
   permanent abort. The delivery fence answers Stale_epoch, the rebind
   path reaches the Host Object, which reaps the zombie and reactivates
   the object under the current epoch — and the transaction commits. *)
let test_fenced_placement_heals_and_commits () =
  (* The heal takes a few fence -> rebind -> reactivate rounds, slower
     than the default retransmission window. The network here is
     loss-free, so single-transmission calls (Retry.none) keep the
     at-least-once resend from re-submitting the non-idempotent TxnRun
     mid-heal, and a generous call budget covers the healing rounds. *)
  let sys =
    boot_two_sites
      ~seed:(Int64.add base_seed 8L)
      ~rt_config:
        {
          Runtime.default_config with
          call_timeout = 30.0;
          max_rebinds = 8;
          retry = Legion_rt.Retry.none;
        }
      ()
  in
  let ctx = System.client sys () in
  let rt = System.rt sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let b = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  (* Open a new incarnation for b without activating it anywhere. *)
  ignore (Runtime.bump_epoch rt b);
  (match
     txn_run sys ctx co ~mode:"2pc"
       [
         step a "Increment" [ Value.Int 5 ];
         step b "Increment" [ Value.Int 7 ];
       ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "expected commit, got %s" (Err.to_string e));
  System.run_for sys 3.0;
  Alcotest.(check int) "a applied" 5 (get sys ctx a);
  (* b was reactivated from its creation OPR under the new epoch; the
     staged increment applied on the healed incarnation. *)
  Alcotest.(check int) "b healed and applied" 7 (get sys ctx b);
  Alcotest.(check (option string)) "b lock free" None (held sys ctx b)

(* The client holds Ok as soon as the decision falls, and its next
   TxnRun arrives while the first commit's acks are still in flight.
   Only each decision's own drive sends TxnCommit: every participant
   gets one, and each transaction finishes once. *)
let test_commit_drives_once () =
  let sys = boot ~seed:(Int64.add base_seed 10L) () in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let p =
    Array.init 4 (fun _ -> Api.create_object_exn sys ctx ~cls ~eager:true ())
  in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let mark = Recorder.total obs in
  let run a b =
    match
      txn_run sys ctx co ~mode:"2pc"
        [ step a "Increment" [ Value.Int 1 ]; step b "Increment" [ Value.Int 1 ] ]
    with
    | Ok (Value.Str id) -> id
    | Ok v -> Alcotest.failf "TxnRun: unexpected %s" (Value.to_string v)
    | Error e -> Alcotest.failf "TxnRun failed: %s" (Err.to_string e)
  in
  let commits id =
    Trace.count_of (Trace.txn_commit ~txn:id ()) (Recorder.events_since obs mark)
  in
  (* The client holds Ok as soon as the decision falls. *)
  let first = run p.(0) p.(1) in
  Alcotest.(check int) "first commit's acks still in flight" 0 (commits first);
  let second = run p.(2) p.(3) in
  System.run_for sys 3.0;
  Alcotest.(check int) "committed counter" 2 (stat sys ctx co "committed");
  List.iter
    (fun id -> Alcotest.(check int) (id ^ " commits once") 1 (commits id))
    [ first; second ];
  Alcotest.(check (list int)) "one TxnCommit per participant" [ 1; 1; 1; 1 ]
    (calls_to obs mark "TxnCommit" (Array.to_list p))

(* A participant's host power-fails after its vote, while its TxnCommit
   is in flight, and comes back 25 s later. The client never calls the
   coordinator meanwhile: the redrive timer, the only retry inside an
   incarnation, must carry the commit through, once. With rebinds on,
   the runtime would reactivate the participant elsewhere from its
   prepare-time snapshot and finish the commit in the first drive; with
   none, every TxnCommit fails until the host is back. *)
let test_redrive_commits_after_outage () =
  let sys =
    boot_two_sites
      ~seed:(Int64.add base_seed 11L)
      ~rt_config:{ Runtime.default_config with max_rebinds = 0 }
      ()
  in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let rt = System.rt sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let host o =
    match Runtime.find_proc rt o with
    | Some p -> Runtime.proc_host p
    | None -> Alcotest.failf "%s is not active" (Loid.to_string o)
  in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let spared =
    Runtime.proc_host ctx.Runtime.self :: host co :: host a
    :: System.infra_hosts sys
  in
  let rec pick n =
    if n = 0 then Alcotest.fail "no participant landed on a spare host"
    else
      let o = Api.create_object_exn sys ctx ~cls ~eager:true () in
      if List.mem (host o) spared then pick (n - 1) else (o, host o)
  in
  let b, victim = pick 12 in
  let mark = Recorder.total obs in
  let prepared = Recorder.count obs "Prepare" in
  let reply = ref None in
  Runtime.invoke ctx ~dst:co ~meth:"TxnRun"
    ~args:
      [
        Value.Str "2pc";
        Value.List
          [ step a "Increment" [ Value.Int 5 ]; step b "Increment" [ Value.Int 7 ] ];
      ]
    (fun r -> reply := Some r);
  (* The coordinator traces a prepare as each yes vote lands; at the
     second the decision falls and its TxnCommits leave. *)
  while Recorder.count obs "Prepare" < prepared + 2 do
    if not (Legion_sim.Engine.step (System.sim sys)) then
      Alcotest.fail "the simulation quiesced before both votes"
  done;
  Runtime.power_fail rt victim;
  System.run_for sys 25.0;
  Legion_net.Network.set_host_up (System.net sys) victim true;
  let back = System.now sys in
  System.run_for sys 30.0;
  let id =
    match !reply with
    | Some (Ok (Value.Str id)) -> id
    | Some (Ok v) -> Alcotest.failf "TxnRun: unexpected %s" (Value.to_string v)
    | Some (Error e) -> Alcotest.failf "TxnRun failed: %s" (Err.to_string e)
    | None -> Alcotest.fail "TxnRun never answered"
  in
  (match
     List.filter (Trace.txn_commit ~txn:id ()) (Recorder.events_since obs mark)
   with
  | [ e ] ->
      Alcotest.(check bool) "committed after the host came back" true
        (e.Legion_obs.Event.time >= back)
  | l -> Alcotest.failf "%d commits traced, expected one" (List.length l));
  Alcotest.(check int) "a applied" 5 (get sys ctx a);
  Alcotest.(check int) "b applied after its outage" 7 (get sys ctx b);
  Alcotest.(check int) "nothing in doubt" 0 (stat sys ctx co "indoubt")

(* --- sagas: immediate application, typed compensation --- *)

let test_saga_commit () =
  let sys = boot ~seed:(Int64.add base_seed 4L) () in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let b = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let mark = Recorder.total obs in
  let id =
    match
      txn_run sys ctx co ~mode:"saga"
        [
          step a "Increment" [ Value.Int 5 ] ~cmeth:"Increment"
            ~cargs:[ Value.Int (-5) ];
          step b "Increment" [ Value.Int 7 ] ~cmeth:"Increment"
            ~cargs:[ Value.Int (-7) ];
        ]
    with
    | Ok (Value.Str id) -> id
    | Ok v -> Alcotest.failf "TxnRun: unexpected %s" (Value.to_string v)
    | Error e -> Alcotest.failf "saga failed: %s" (Err.to_string e)
  in
  System.run_for sys 3.0;
  Alcotest.(check int) "a incremented" 5 (get sys ctx a);
  Alcotest.(check int) "b incremented" 7 (get sys ctx b);
  let store = (System.site sys 0).System.storage in
  check_marks store ~txn:id ~participants:[ a; b ] Persistent.Committed;
  let events = Recorder.events_since obs mark in
  Alcotest.(check bool) "commit traced" true
    (List.exists (Trace.txn_commit ~txn:id ()) events)

let test_saga_compensation ~poked () =
  let sys = boot ~seed:(Int64.add base_seed 5L) () in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let b = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let mark = Recorder.total obs in
  let id =
    match
      txn_run sys ctx co ~mode:"saga"
        [
          step a "Increment" [ Value.Int 5 ] ~cmeth:"Increment"
            ~cargs:[ Value.Int (-5) ];
          (* The second step fails; the saga turns around and undoes
             the first via its typed compensation. *)
          step b "NoSuchMethod" [] ~cmeth:"Reset";
        ]
    with
    | Error (Err.Txn_aborted { txn }) -> txn
    | Ok v -> Alcotest.failf "expected abort, got %s" (Value.to_string v)
    | Error e -> Alcotest.failf "expected Txn_aborted, got %s" (Err.to_string e)
  in
  if poked then (poke sys ctx co; poke sys ctx co);
  System.run_for sys 3.0;
  Alcotest.(check int) "a compensated back to 0" 0 (get sys ctx a);
  Alcotest.(check int) "b untouched" 0 (get sys ctx b);
  let store = (System.site sys 0).System.storage in
  check_marks store ~txn:id ~participants:[ a ] Persistent.Compensated;
  Alcotest.(check int) "nothing in doubt" 0 (stat sys ctx co "indoubt");
  let events = Recorder.events_since obs mark in
  (match
     Trace.(
       run
         (seq
            [
              matches ~label:"step applied"
                (prepare ~txn:id ~participant:a ());
              matches ~label:"abort" (txn_abort ~txn:id ());
              matches ~label:"compensation"
                (compensate ~txn:id ~participant:a ());
            ])
         events)
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "exactly one compensation" 1
    (Trace.count_of (Trace.compensate ~txn:id ()) events)

(* --- coordinator crash after the commit decision: resume, not undo --- *)

(* A coordinator on a crashable (non-infrastructure) host, and two
   participants on hosts that survive its crash. *)
let crashable_coordinator sys ctx =
  let rt = System.rt sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let infra = System.infra_hosts sys in
  let co, victim =
    match Legion.Txn.create_coordinator sys ctx ~cls:coord_cls with
    | co, Some h when not (List.mem h infra) -> (co, h)
    | _ -> Alcotest.fail "no coordinator landed off-infrastructure"
  in
  let rec pick acc n =
    if List.length acc = 2 then (List.nth acc 0, List.nth acc 1)
    else if n = 0 then Alcotest.fail "no surviving-host participants"
    else
      let o = Api.create_object_exn sys ctx ~cls ~eager:true () in
      match Runtime.find_proc rt o with
      | Some p when Runtime.proc_host p <> victim -> pick (o :: acc) (n - 1)
      | _ -> pick acc n
  in
  let a, b = pick [] 12 in
  (co, victim, a, b)

let test_coordinator_crash_resumes_commit () =
  let sys = boot ~seed:(Int64.add base_seed 6L) () in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let rt = System.rt sys in
  let co, victim, a, b = crashable_coordinator sys ctx in
  configure_store sys ctx co "uva";
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(System.now sys +. 60.0)
    ();
  (* Let checkpoints capture the configured coordinator and the
     participants before the fault. *)
  System.run_for sys 2.0;
  let mark = Recorder.total obs in
  let id =
    match
      txn_run sys ctx co ~mode:"2pc"
        [
          step a "Increment" [ Value.Int 5 ];
          step b "Increment" [ Value.Int 7 ];
        ]
    with
    | Ok (Value.Str id) -> id
    | Ok v -> Alcotest.failf "TxnRun: unexpected %s" (Value.to_string v)
    | Error e -> Alcotest.failf "TxnRun failed: %s" (Err.to_string e)
  in
  (* The client has its Ok — the commit decision is durable in the WAL.
     Kill the coordinator before the commit acknowledgements are
     recorded: recovery must finish the commit, never roll it back. *)
  Runtime.power_fail rt victim;
  System.run_for sys 15.0;
  let events = Recorder.events_since obs mark in
  Alcotest.(check bool) "reactivated coordinator resumed toward commit" true
    (List.exists (Trace.resume ~txn:id ~decision:"commit" ()) events);
  Alcotest.(check bool) "commit completed after resume" true
    (List.exists (Trace.txn_commit ~txn:id ()) events);
  (* Applied exactly once: the participants saw the first TxnCommit,
     the re-driven one was acknowledged idempotently. *)
  Alcotest.(check int) "a applied once" 5 (get sys ctx a);
  Alcotest.(check int) "b applied once" 7 (get sys ctx b);
  Alcotest.(check (option string)) "a lock free" None (held sys ctx a);
  Alcotest.(check (option string)) "b lock free" None (held sys ctx b);
  let store = (System.site sys 0).System.storage in
  check_marks store ~txn:id ~participants:[ a; b ] Persistent.Committed;
  Alcotest.(check int) "resumed counter" 1 (stat sys ctx co "resumed");
  Alcotest.(check int) "nothing in doubt" 0 (stat sys ctx co "indoubt")

(* A restored coordinator whose log does not read must not carry on as
   if it had none: a fresh TxnRun would re-issue an old id and overwrite
   the log, and TxnStatus would answer "unknown" for every in-doubt
   transaction, which a participant takes as an abort. *)
let test_unreadable_log_fails_loudly () =
  let sys = boot ~seed:(Int64.add base_seed 9L) () in
  let ctx = System.client sys () in
  let rt = System.rt sys in
  let co, victim, a, b = crashable_coordinator sys ctx in
  configure_store sys ctx co "uva";
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(System.now sys +. 60.0)
    ();
  System.run_for sys 2.0;
  let steps =
    [ step a "Increment" [ Value.Int 5 ]; step b "Increment" [ Value.Int 7 ] ]
  in
  let id =
    match txn_run sys ctx co ~mode:"2pc" steps with
    | Ok (Value.Str id) -> id
    | Ok v -> Alcotest.failf "TxnRun: unexpected %s" (Value.to_string v)
    | Error e -> Alcotest.failf "TxnRun failed: %s" (Err.to_string e)
  in
  System.run_for sys 3.0;
  let store = (System.site sys 0).System.storage in
  let head = Wal.head_key co in
  Persistent.put_named store ~name:head "garbage";
  Runtime.power_fail rt victim;
  System.run_for sys 15.0;
  let expect_internal what = function
    | Error (Err.Internal _) -> ()
    | Ok v ->
        Alcotest.failf "%s on an unreadable log answered %s" what
          (Value.to_string v)
    | Error e ->
        Alcotest.failf "%s: expected Internal, got %s" what (Err.to_string e)
  in
  expect_internal "TxnRun" (txn_run sys ctx co ~mode:"2pc" steps);
  expect_internal "TxnStatus"
    (Api.call sys ctx ~dst:co ~meth:"TxnStatus" ~args:[ Value.Str id ]);
  expect_internal "TxnStats" (Api.call sys ctx ~dst:co ~meth:"TxnStats" ~args:[]);
  Alcotest.(check (option string)) "the unreadable head is left as it was"
    (Some "garbage")
    (Persistent.get_named store ~name:head)

(* --- malformed input fails loudly and changes nothing --- *)

(* Every malformed TxnRun answers Bad_args, and no participant and no
   counter moves. A step field present with the wrong type used to be
   read as its default: [args = Int 5] prepared Increment with no
   argument, which voted yes, failed at commit, and left that
   participant unchanged while the client got the commit id. *)
let test_malformed_run_rejected () =
  let sys = boot ~seed:(Int64.add base_seed 12L) () in
  let ctx = System.client sys () in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let a = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let b = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  configure_store sys ctx co "uva";
  let counters () =
    List.map (stat sys ctx co) [ "committed"; "aborted"; "indoubt" ]
  in
  let before = counters () in
  let inc dst d = step dst "Increment" [ Value.Int d ] in
  let mistyped =
    Value.Record
      [
        ("dst", Loid.to_value a);
        ("meth", Value.Str "Increment");
        ("args", Value.Int 5);
      ]
  in
  List.iter
    (fun (case, mode, steps) ->
      (match txn_run sys ctx co ~mode steps with
      | Error (Err.Bad_args msg) ->
          Alcotest.(check bool) (case ^ ": a TxnRun error") true
            (String.starts_with ~prefix:"TxnRun: " msg)
      | Ok v -> Alcotest.failf "%s: accepted, answered %s" case (Value.to_string v)
      | Error e ->
          Alcotest.failf "%s: expected Bad_args, got %s" case (Err.to_string e));
      System.run_for sys 3.0;
      Alcotest.(check (list int)) (case ^ ": values unchanged") [ 0; 0 ]
        [ get sys ctx a; get sys ctx b ];
      Alcotest.(check (list int)) (case ^ ": counters unchanged") before
        (counters ()))
    [
      ("no steps", "2pc", []);
      ("duplicate participant", "2pc", [ inc a 1; inc a 2 ]);
      ("unknown mode", "3pc", [ inc a 1; inc b 1 ]);
      ("a step that is not a record", "2pc", [ inc a 1; Value.Int 7 ]);
      ("saga step without compensation", "saga", [ inc a 1; inc b 1 ]);
      ("mistyped args", "2pc", [ mistyped; inc b 1 ]);
    ]

(* A store name no Jurisdiction registered used to be taken, and turned
   durability off without a word. *)
let test_configure_unknown_store () =
  let sys = boot ~seed:(Int64.add base_seed 13L) () in
  let ctx = System.client sys () in
  let coord_cls = derive_coord_class sys ctx in
  let co = Api.create_object_exn sys ctx ~cls:coord_cls ~eager:true () in
  (match
     Api.call sys ctx ~dst:co ~meth:"Configure"
       ~args:[ Value.Record [ ("store", Value.Str "nope") ] ]
   with
  | Error (Err.Bad_args msg) ->
      Alcotest.(check string) "the error names the store"
        {|Configure: no store named "nope"|} msg
  | Ok v -> Alcotest.failf "an unknown store was taken: %s" (Value.to_string v)
  | Error e -> Alcotest.failf "expected Bad_args, got %s" (Err.to_string e));
  configure_store sys ctx co "uva"

(* --- Persistent history: prune protection and event-sourced rewind --- *)

let mk_store ?(keep = 2) ?(hist_cap = 8) () =
  Persistent.create ~keep ~hist_cap
    ~disks:[ Disk.create ~name:"d0"; Disk.create ~name:"d1" ]
    ()

let loid_of i = Loid.make ~class_id:77L ~class_specific:(Int64.of_int i) ()

let test_history_basics () =
  let s = mk_store () in
  let l = loid_of 1 in
  ignore (Persistent.put s ~loid:l "v1");
  ignore (Persistent.put ~txn:"t1" s ~loid:l "v2");
  (match Persistent.history s ~loid:l with
  | [ e1; e2 ] ->
      Alcotest.(check string) "plain put applied" "applied"
        (Persistent.mark_name e1.Persistent.History.mark);
      Alcotest.(check string) "txn put staged" "staged"
        (Persistent.mark_name e2.Persistent.History.mark);
      Alcotest.(check bool) "ordered oldest first" true
        (e1.Persistent.History.version < e2.Persistent.History.version)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Persistent.mark_txn s ~loid:l ~txn:"t1" Persistent.Committed;
  Alcotest.(check bool) "committed watermark set" true
    (Persistent.last_committed s ~loid:l <> None);
  (* Rewind to the first version: re-stored as a new version, blob
     intact. *)
  let v1 =
    match Persistent.history s ~loid:l with
    | e :: _ -> e.Persistent.History.version
    | [] -> Alcotest.fail "no history"
  in
  (match Persistent.rewind_to s ~loid:l ~version:v1 with
  | Ok opa ->
      Alcotest.(check (option string)) "rewound blob" (Some "v1")
        (Persistent.get s opa)
  | Error msg -> Alcotest.failf "rewind failed: %s" msg);
  Alcotest.(check int) "history grew by the rewind" 3
    (List.length (Persistent.history s ~loid:l))

let test_staged_survives_prune () =
  let s = mk_store ~keep:1 () in
  let l = loid_of 2 in
  ignore (Persistent.put ~txn:"tx" s ~loid:l "staged-write");
  (* A burst of plain checkpoints would normally evict everything past
     [keep]; the staged entry's file must survive. *)
  for i = 1 to 6 do
    ignore (Persistent.put s ~loid:l (Printf.sprintf "ckpt%d" i))
  done;
  let staged =
    List.filter
      (fun (e : Persistent.History.entry) -> e.txn = Some "tx")
      (Persistent.history s ~loid:l)
  in
  (match staged with
  | [ e ] ->
      Alcotest.(check bool) "staged entry still available" true
        e.Persistent.History.available;
      Alcotest.(check (option string)) "staged bytes intact"
        (Some "staged-write")
        (Persistent.get s e.Persistent.History.opa)
  | es -> Alcotest.failf "expected 1 staged entry, got %d" (List.length es));
  (* Resolving the txn releases the protection; later checkpoints may
     evict it like any other old version. *)
  Persistent.mark_txn s ~loid:l ~txn:"tx" Persistent.Compensated;
  for i = 7 to 12 do
    ignore (Persistent.put s ~loid:l (Printf.sprintf "ckpt%d" i))
  done;
  let files = Persistent.total_files s in
  Alcotest.(check bool)
    (Printf.sprintf "files bounded after resolution (%d)" files)
    true (files <= 2)

(* QCheck: under any interleaving of plain puts, txn puts, commits and
   compensations, (a) staged entries are never dropped, (b) the newest
   committed snapshot (at the watermark) keeps its file, and (c) the
   file count stays bounded by plain-keep slots + protected entries. *)
let history_prune_prop =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map (fun l -> `Put l) (int_bound 2));
          (3, map2 (fun l t -> `Put_txn (l, t)) (int_bound 2) (int_bound 3));
          (2, map (fun t -> `Commit t) (int_bound 3));
          (2, map (fun t -> `Compensate t) (int_bound 3));
        ])
  in
  let ops_arb =
    make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Put l -> Printf.sprintf "put%d" l
               | `Put_txn (l, t) -> Printf.sprintf "txn%d@%d" t l
               | `Commit t -> Printf.sprintf "commit%d" t
               | `Compensate t -> Printf.sprintf "comp%d" t)
             ops))
      Gen.(list_size (int_range 1 60) op_gen)
  in
  Test.make ~name:"history: prune never drops protected entries"
    ~count:200 ops_arb (fun ops ->
      let keep = 2 and nloids = 3 in
      let s = mk_store ~keep ~hist_cap:6 () in
      let loids = Array.init nloids loid_of in
      let txn_name t = Printf.sprintf "t%d" t in
      (* Model: every txn-tagged put, as (loid idx, version, txn), plus
         the set of txns that have ever been resolved — a put whose txn
         was never resolved is still staged (late puts under a resolved
         txn inherit the verdict, so they are never staged). *)
      let model = ref [] in
      let resolved = Hashtbl.create 8 in
      let newest_version l =
        match List.rev (Persistent.history s ~loid:loids.(l)) with
        | e :: _ -> e.Persistent.History.version
        | [] -> failwith "put left no entry"
      in
      List.iter
        (fun op ->
          (match op with
          | `Put l -> ignore (Persistent.put s ~loid:loids.(l) "blob")
          | `Put_txn (l, t) ->
              ignore (Persistent.put ~txn:(txn_name t) s ~loid:loids.(l) "blob");
              model := (l, newest_version l, txn_name t) :: !model
          | `Commit t ->
              Hashtbl.replace resolved (txn_name t) ();
              Array.iteri
                (fun l loid ->
                  ignore l;
                  Persistent.mark_txn s ~loid ~txn:(txn_name t)
                    Persistent.Committed)
                loids
          | `Compensate t ->
              Hashtbl.replace resolved (txn_name t) ();
              Array.iter
                (fun loid ->
                  Persistent.mark_txn s ~loid ~txn:(txn_name t)
                    Persistent.Compensated)
                loids);
          (* Invariants after every step. *)
          let protected_total = ref 0 in
          Array.iteri
            (fun l loid ->
              let hist = Persistent.history s ~loid in
              let watermark =
                Option.value ~default:0 (Persistent.last_committed s ~loid)
              in
              List.iter
                (fun (e : Persistent.History.entry) ->
                  let prot =
                    e.mark = Persistent.Staged
                    || (e.mark = Persistent.Committed && e.version = watermark)
                  in
                  if prot then begin
                    incr protected_total;
                    if not e.available then
                      Test.fail_reportf
                        "protected entry v%d of loid %d lost its file"
                        e.version l
                  end)
                hist;
              (* Model check: puts under a never-resolved txn are still
                 staged and must be listed with their files intact. *)
              List.iter
                (fun (ml, mv, mt) ->
                  if ml = l && not (Hashtbl.mem resolved mt) then
                    let present =
                      List.exists
                        (fun (e : Persistent.History.entry) ->
                          e.version = mv && e.txn = Some mt
                          && e.mark = Persistent.Staged && e.available)
                        hist
                    in
                    if not present then
                      Test.fail_reportf
                        "staged txn put v%d (%s) on loid %d dropped while \
                         its txn is unresolved (watermark %d)"
                        mv mt ml watermark)
                !model)
            loids;
          let bound = (nloids * keep) + !protected_total in
          if Persistent.total_files s > bound then
            Test.fail_reportf "file count %d exceeds bound %d"
              (Persistent.total_files s) bound)
        ops;
      true)

(* --- named blobs ride beside the version files --- *)

let test_named_blobs () =
  let s = mk_store ~keep:1 () in
  let l = loid_of 3 in
  Persistent.put_named s ~name:"wal.test" "wal-bytes";
  Alcotest.(check (option string)) "named readable" (Some "wal-bytes")
    (Persistent.get_named s ~name:"wal.test");
  Persistent.put_named s ~name:"wal.test" "wal-bytes-2";
  (* Version pruning never touches named blobs. *)
  for i = 1 to 5 do
    ignore (Persistent.put s ~loid:l (Printf.sprintf "v%d" i))
  done;
  Alcotest.(check (option string)) "named survives pruning"
    (Some "wal-bytes-2")
    (Persistent.get_named s ~name:"wal.test");
  Persistent.remove_named s ~name:"wal.test";
  Alcotest.(check (option string)) "named removable" None
    (Persistent.get_named s ~name:"wal.test")

(* --- the write-ahead log against its whole-snapshot oracle --- *)

let wal_loid = loid_of 100

let mk_txn ~seq ~saga n =
  let mk_step i =
    {
      Wal.dst = loid_of (200 + i);
      meth = "Increment";
      args = [ Value.Int (i + 1) ];
      cmeth = (if saga then "Increment" else "");
      cargs = (if saga then [ Value.Int (-(i + 1)) ] else []);
    }
  in
  {
    Wal.id = Printf.sprintf "%s.%d" (Loid.to_string wal_loid) seq;
    mode = (if saga then Saga else Two_phase);
    steps = Array.init n mk_step;
    phase = Running;
    pending = List.init n Fun.id;
  }

type wal_op =
  | Open of bool * int  (** saga?, step count *)
  | Set_phase of int * Wal.phase  (** the i-th open txn (mod count) *)
  | Set_pending of int * int  (** bit mask over the step indices *)
  | Finish of int * Wal.phase
  | Crash

let print_wal_op = function
  | Open (saga, n) ->
      Printf.sprintf "open-%s-%d" (if saga then "saga" else "2pc") n
  | Set_phase (i, p) -> Printf.sprintf "phase%d=%s" i (Wal.phase_to_string p)
  | Set_pending (i, m) -> Printf.sprintf "pending%d=%x" i m
  | Finish (i, p) -> Printf.sprintf "finish%d=%s" i (Wal.phase_to_string p)
  | Crash -> "crash"

(* Both logs see the same steps, as the coordinator would drive them:
   every change is logged, and a crash drops everything in memory and
   folds the log back. After each fold the two recover the same
   transactions and sequence counter — the ones the steps left open —
   and the run goes on from the fold. *)
let wal_matches_ref =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (3, map2 (fun saga n -> Open (saga, n)) bool (int_range 1 3));
          ( 3,
            map2
              (fun i p -> Set_phase (i, p))
              nat
              (oneofl [ Wal.Running; Committing; Compensating ]) );
          (3, map2 (fun i m -> Set_pending (i, m)) nat (int_bound 7));
          ( 2,
            map2
              (fun i p -> Finish (i, p))
              nat
              (oneofl [ Wal.Committed; Compensated ]) );
          (1, return Crash);
        ])
  in
  let ops_arb =
    make
      ~print:(fun ops -> String.concat ";" (List.map print_wal_op ops))
      Gen.(list_size (int_range 1 50) op_gen)
  in
  Test.make ~name:"wal: recovers what the whole-snapshot log recovers"
    ~count:300 ops_arb (fun ops ->
      let s_new = mk_store () and s_ref = mk_store () in
      let name = Wal.head_key wal_loid in
      let epoch = ref 1 and seq = ref 0 in
      let wal = ref (Wal.create wal_loid ~epoch:1 (fun () -> Some s_new)) in
      (* The incarnation's transaction table (finished ones included)
         and its open transactions, oldest first. *)
      let table = Hashtbl.create 16 and live = ref [] in
      let ref_write () =
        Wal_ref.write s_ref ~name ~epoch:!epoch ~seq:!seq table
      in
      let change i f =
        match !live with
        | [] -> ()
        | l ->
            let old = List.nth l (i mod List.length l) in
            let t = f old in
            Hashtbl.replace table t.Wal.id t;
            (match t.Wal.phase with
            | Committed | Compensated ->
                live := List.filter (fun u -> u != old) !live;
                Wal.finish !wal t
            | Running | Committing | Compensating ->
                live := List.map (fun u -> if u == old then t else u) !live;
                Wal.update !wal t);
            ref_write ()
      in
      let canon txns =
        List.sort compare
          (List.map (fun t -> Value.to_string (Wal.txn_to_value t)) txns)
      in
      List.iter
        (function
          | Open (saga, n) ->
              incr seq;
              let t = mk_txn ~seq:!seq ~saga n in
              Hashtbl.replace table t.Wal.id t;
              live := !live @ [ t ];
              Wal.open_txn !wal ~seq:!seq t;
              ref_write ()
          | Set_phase (i, p) | Finish (i, p) ->
              change i (fun t -> { t with Wal.phase = p })
          | Set_pending (i, m) ->
              change i (fun t ->
                  {
                    t with
                    Wal.pending =
                      List.filter
                        (fun j -> m land (1 lsl j) <> 0)
                        (List.init (Array.length t.Wal.steps) Fun.id);
                  })
          | Crash -> (
              incr epoch;
              wal := Wal.create wal_loid ~epoch:!epoch (fun () -> Some s_new);
              match (Wal.recover !wal, Wal_ref.recover s_ref ~name) with
              | Error e, _ | _, Error e ->
                  Test.fail_reportf "recovery failed: %s" e
              | Ok None, Ok None -> ()
              | Ok None, Ok (Some _) | Ok (Some _), Ok None ->
                  Test.fail_reportf "only one of the logs exists"
              | Ok (Some (seq_new, txns)), Ok (Some (seq_ref, txns_ref)) ->
                  if seq_new <> seq_ref || seq_new <> !seq then
                    Test.fail_reportf "seq: wal %d, reference %d, steps %d"
                      seq_new seq_ref !seq;
                  let got = canon txns and want = canon txns_ref in
                  if got <> want || got <> canon !live then
                    Test.fail_reportf
                      "recovered\n  wal: %s\n  reference: %s\n  open: %s"
                      (String.concat " " got) (String.concat " " want)
                      (String.concat " " (canon !live));
                  Hashtbl.reset table;
                  List.iter
                    (fun t ->
                      Hashtbl.replace table t.Wal.id t;
                      Wal.adopt !wal t)
                    txns;
                  live := txns;
                  Wal.claim !wal ~seq:!seq;
                  ref_write ()))
        ops;
      true)

(* Every blob on the store's disks, for byte-for-byte comparison. *)
let disk_contents s =
  List.concat_map
    (fun d ->
      List.map
        (fun key -> (Disk.name d, key, Disk.read d ~key))
        (List.sort compare (Disk.keys d)))
    (Persistent.disks s)

let test_wal_fencing () =
  let s = mk_store () in
  let store () = Some s in
  let old = Wal.create wal_loid ~epoch:1 store in
  let t1 = mk_txn ~seq:1 ~saga:false 2 and t2 = mk_txn ~seq:2 ~saga:true 2 in
  Wal.open_txn old ~seq:1 t1;
  Wal.open_txn old ~seq:2 t2;
  let successor = Wal.create wal_loid ~epoch:2 store in
  (match Wal.recover successor with
  | Ok (Some (seq, txns)) ->
      Alcotest.(check (list string)) "successor folds both" [ t1.id; t2.id ]
        (List.map (fun t -> t.Wal.id) txns);
      List.iter (Wal.adopt successor) txns;
      Wal.claim successor ~seq
  | Ok None -> Alcotest.fail "the log is missing"
  | Error e -> Alcotest.failf "recovery failed: %s" e);
  let before = disk_contents s in
  Alcotest.(check bool) "superseded incarnation is not the owner" false
    (Wal.am_owner old);
  Alcotest.(check bool) "successor is the owner" true (Wal.am_owner successor);
  Wal.update old { t1 with phase = Committing };
  Wal.finish old { t2 with phase = Compensated };
  Wal.claim old ~seq:9;
  Wal.open_txn old ~seq:3 (mk_txn ~seq:3 ~saga:false 1);
  Alcotest.(check bool) "every WAL key keeps its bytes" true
    (before = disk_contents s)

(* A log is unreadable, never empty, when its head does not decode,
   when a record the head lists is missing, or when a record does not
   decode. *)
let test_wal_unreadable () =
  let unreadable what spoil =
    let s = mk_store () in
    let wal = Wal.create wal_loid ~epoch:1 (fun () -> Some s) in
    let t1 = mk_txn ~seq:1 ~saga:false 2 and t2 = mk_txn ~seq:2 ~saga:true 1 in
    Wal.open_txn wal ~seq:1 t1;
    Wal.open_txn wal ~seq:2 t2;
    spoil s (Wal.record_key wal_loid t2.id);
    match Wal.recover (Wal.create wal_loid ~epoch:2 (fun () -> Some s)) with
    | Error _ -> ()
    | Ok None -> Alcotest.failf "%s: read as no log" what
    | Ok (Some (_, txns)) ->
        Alcotest.failf "%s: read as %d transactions" what (List.length txns)
  in
  unreadable "head garbage" (fun s _ ->
      Persistent.put_named s ~name:(Wal.head_key wal_loid) "garbage");
  unreadable "record missing" (fun s record ->
      Persistent.remove_named s ~name:record);
  unreadable "record garbage" (fun s record ->
      Persistent.put_named s ~name:record "garbage")

(* Minor words are a function of the code and the inputs, not of the
   machine, so the bounds hold anywhere. One logged state change of one
   transaction, beside [others] other open transactions. *)
let words_per_change ~others change =
  let txns =
    List.init (others + 1) (fun i -> mk_txn ~seq:(i + 1) ~saga:false 2)
  in
  let f = change txns (List.hd txns) in
  f ();
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let wal_change txns t =
  let s = mk_store () in
  let wal = Wal.create wal_loid ~epoch:1 (fun () -> Some s) in
  List.iteri (fun i u -> Wal.open_txn wal ~seq:(i + 1) u) txns;
  fun () -> Wal.update wal t

let ref_change txns _t =
  let s = mk_store () in
  let table = Hashtbl.create 64 in
  List.iter (fun (u : Wal.txn) -> Hashtbl.replace table u.id u) txns;
  let seq = List.length txns in
  fun () -> Wal_ref.write s ~name:(Wal.head_key wal_loid) ~epoch:1 ~seq table

let test_change_words_flat () =
  let ratio change =
    let small = words_per_change ~others:1 change
    and large = words_per_change ~others:32 change in
    (large /. small, small, large)
  in
  let r, small, large = ratio wal_change in
  Alcotest.(check bool)
    (Printf.sprintf
       "words per change with 32 others (%.0f) <= 1.2 x with 1 (%.0f)" large
       small)
    true (r <= 1.2);
  (* The whole-snapshot log fails the same bound: the measurement can
     tell the two apart. *)
  let r, small, large = ratio ref_change in
  Alcotest.(check bool)
    (Printf.sprintf
       "reference words with 32 others (%.0f) >= 4 x with 1 (%.0f)" large small)
    true (r >= 4.0);
  (* One change is also one disk write: the owner key is written once
     per incarnation, not beside every record. *)
  let s = mk_store () in
  let wal = Wal.create wal_loid ~epoch:1 (fun () -> Some s) in
  let t = mk_txn ~seq:1 ~saga:false 2 in
  Wal.open_txn wal ~seq:1 t;
  let writes () =
    List.fold_left (fun acc d -> acc + Disk.writes d) 0 (Persistent.disks s)
  in
  let w0 = writes () in
  for _ = 1 to 10 do
    Wal.update wal t
  done;
  Alcotest.(check int) "ten changes, ten writes" 10 (writes () - w0)

(* --- watcher deregistration: the cut/heal leak regression --- *)

(* The shared E20 audit must be able to fail: a hand-built history with
   one fault of each kind yields exactly one violation per fault, and
   the same history without them yields none. *)
let test_audit_detects_faults () =
  let s = mk_store () in
  let write txn objs mark =
    List.iter
      (fun i ->
        ignore (Persistent.put ~txn s ~loid:(loid_of i) "blob");
        Option.iter (Persistent.mark_txn s ~loid:(loid_of i) ~txn) mark)
      objs
  in
  write "t-commit" [ 1; 2 ] (Some Persistent.Committed);
  write "t-abort" [ 1; 2 ] (Some Persistent.Compensated);
  let audit ~acked =
    Legion.Txn.audit s ~submitted:[ "t-commit"; "t-abort" ] ~acked
  in
  let clean = audit ~acked:[ "t-commit" ] in
  Alcotest.(check (list string)) "clean history" [] clean.Legion.Txn.violations;
  Alcotest.(check (pair int int)) "outcomes counted" (1, 1)
    (clean.Legion.Txn.committed, clean.Legion.Txn.compensated);
  (* Fault 1: a staged entry nobody resolved. Fault 2: one transaction
     committed on one LOID and compensated on another. Fault 3: an
     acknowledged commit recorded as compensated. *)
  write "t-staged" [ 3 ] None;
  write "t-mixed" [ 1 ] (Some Persistent.Committed);
  write "t-mixed" [ 2 ] (Some Persistent.Compensated);
  Alcotest.(check (list string)) "one violation per fault"
    [
      "txn t-mixed has mixed commit/compensate marks (partial commit)";
      "txn t-staged left staged entries (partial commit)";
      "acknowledged commit t-abort recorded as compensated";
    ]
    (audit ~acked:[ "t-commit"; "t-abort" ]).Legion.Txn.violations

(* --- the core, explored exhaustively --- *)

(* A model of everything around [Protocol.step], with no runtime: two
   participants, their history under the transaction, the log's record,
   the client and the redrive timer. [explore] runs the core from
   [Begin] through every order in which in-flight requests are
   answered, a refusal of any prepare or saga step, up to two requests
   lost (before the participant acts, or after it: a lost reply), the
   redrive timer firing whenever it is armed with nothing in flight, and
   one coordinator crash at any point while the log holds the
   transaction. At the crash each in-flight request of the dead
   incarnation lands or is lost, and the successor resumes from the
   logged record with the steps that have a history entry. Split brain,
   where a fenced predecessor keeps running, is out of scope: the live
   incarnation always owns the log. Every state with nothing left to
   run is checked against [violations]. *)

module Protocol = Legion_txn.Protocol

type part = {
  lock : bool;  (** holds the transaction's prepare lock *)
  applied : int;  (** times the step's call ran *)
  undone : int;  (** times its compensation ran *)
  entry : bool;  (** its history has an entry under the transaction *)
  verdict : Persistent.mark option;  (** the first verdict marked for it *)
}

type world = {
  core : Protocol.t;
  inflight : (Protocol.request * int) list;  (** sorted *)
  armed : bool;
  logged : Wal.txn option;
  parts : part list;
  losses : int;
  crashed : bool;
  replies : (Value.t, Err.t) result list;
  early_ok : bool;  (** 2PC: Ok replied before a Committing record was logged *)
  committing_logged : bool;
  commits_traced : int;
}

let with_part i f w =
  { w with parts = List.mapi (fun j p -> if j = i then f p else p) w.parts }

(* Verdicts are one-way: the first one sticks. *)
let resolve m p = if p.verdict = None then { p with verdict = Some m } else p

(* A request lands at its participant. *)
let arrive ((req : Protocol.request), i) =
  with_part i (fun p ->
      match req with
      | Prepare -> { p with lock = true }
      | Commit when p.lock -> { p with lock = false; applied = p.applied + 1 }
      | Commit -> p
      | Abort -> { p with lock = false }
      | Apply -> { p with applied = p.applied + 1 }
      | Undo -> { p with undone = p.undone + 1 })

let perform w (action : Protocol.action) =
  match action with
  | Send (req, i) ->
      { w with inflight = List.sort compare ((req, i) :: w.inflight) }
  | Stage i -> with_part i (fun p -> { p with entry = true }) w
  | Mark (i, m) -> with_part i (fun p -> resolve m { p with entry = true }) w
  | Resolve m -> { w with parts = List.map (resolve m) w.parts }
  | Log t ->
      {
        w with
        logged = Some t;
        committing_logged = w.committing_logged || t.phase = Committing;
      }
  | Close -> { w with logged = None }
  | Emit (Txn_commit _) -> { w with commits_traced = w.commits_traced + 1 }
  | Emit _ -> w
  | Reply r ->
      let early =
        Result.is_ok r && w.core.txn.mode = Two_phase && not w.committing_logged
      in
      { w with replies = r :: w.replies; early_ok = w.early_ok || early }
  | Arm_redrive -> { w with armed = true }

let feed w input =
  let core, actions = Protocol.step ~owner:(fun () -> true) w.core input in
  List.fold_left perform { w with core } actions

let violations w =
  let t = w.core.txn in
  let committed = t.phase = Committed and compensated = t.phase = Compensated in
  let every f = List.for_all f w.parts in
  let found = ref [] in
  let check ok name = if not ok then found := name :: !found in
  check (committed || compensated) "ended in doubt";
  (match t.mode with
  | Two_phase ->
      check
        ((not committed) || every (fun p -> p.applied = 1))
        "committed without applying every participant once";
      check
        ((not compensated) || every (fun p -> p.applied = 0))
        "compensated after a participant applied";
      check (every (fun p -> not p.lock)) "a prepare lock outlived the transaction";
      check
        ((not w.committing_logged) || committed)
        "a logged Committing record was rolled back";
      check (not w.early_ok) "Ok replied before Committing was logged"
  | Saga ->
      check
        ((not committed) || every (fun p -> p.applied = 1 && p.undone = 0))
        "committed without applying every step once";
      check
        ((not compensated) || every (fun p -> p.applied <= p.undone))
        "compensated while a step's effect remains";
      check
        ((not compensated) || every (fun p -> p.undone <= p.applied))
        "a compensation ran twice");
  check
    (List.for_all (function Ok _ -> committed | Error _ -> true) w.replies)
    "Ok replied for a transaction that did not commit";
  check
    (List.for_all
       (function Error (Err.Txn_aborted _) -> compensated | _ -> true)
       w.replies)
    "Txn_aborted replied for a transaction that did not compensate";
  check (List.length w.replies <= 1) "the client got more than one reply";
  check
    (w.commits_traced = if committed then 1 else 0)
    "Txn_commit not traced exactly once per commit";
  check
    (every (fun p -> (not p.entry) || p.verdict <> None))
    "a history entry left staged";
  !found

module Seen = Hashtbl.Make (struct
  type t = world

  let equal = ( = )
  let hash = Hashtbl.hash_param 256 1024
end)

(* The violations found, sorted, and the final phases of the states
   with nothing left to run. *)
let explore ~saga =
  let seen = Seen.create 1024 in
  let classes = ref [] and finals = ref [] in
  let rec visit w =
    if not (Seen.mem seen w) then begin
      Seen.add seen w ();
      if w.inflight = [] && not w.armed then begin
        finals := w.core.txn.phase :: !finals;
        classes := violations w @ !classes
      end;
      List.iter
        (fun ((req, i) as r) ->
          let rec drop = function
            | [] -> []
            | x :: l -> if x = r then l else x :: drop l
          in
          let w = { w with inflight = drop w.inflight } in
          let answer w res = visit (feed w (Protocol.Answer (req, i, res))) in
          answer (arrive r w) (Ok Value.Unit);
          if req = Prepare || req = Apply then answer w (Error (Err.Refused "no"));
          if w.losses < 2 then begin
            let w = { w with losses = w.losses + 1 } in
            answer w (Error Err.Timeout);
            answer (arrive r w) (Error Err.Timeout)
          end)
        (List.sort_uniq compare w.inflight);
      if w.armed && w.inflight = [] then
        visit (feed { w with armed = false } Redrive);
      match w.logged with
      | Some logged when not w.crashed ->
          let rec crash w = function
            | r :: rest ->
                crash (arrive r w) rest;
                crash w rest
            | [] ->
                let applied =
                  List.filter (fun i -> (List.nth w.parts i).entry) [ 0; 1 ]
                in
                let core = Protocol.init logged in
                let w =
                  { w with core; inflight = []; armed = false; crashed = true }
                in
                visit (feed w (Resume applied))
          in
          crash w w.inflight
      | _ -> ()
    end
  in
  let txn = mk_txn ~seq:1 ~saga 2 in
  let fresh =
    { lock = false; applied = 0; undone = 0; entry = false; verdict = None }
  in
  visit
    (feed
       {
         core = Protocol.init txn;
         inflight = [];
         armed = false;
         logged = Some txn;
         parts = [ fresh; fresh ];
         losses = 0;
         crashed = false;
         replies = [];
         early_ok = false;
         committing_logged = false;
         commits_traced = 0;
       }
       Begin);
  (List.sort_uniq compare !classes, !finals)

(* 2PC keeps every invariant. Sagas have two known gaps, pinned by name
   so neither can grow or vanish silently; closing them changes the
   protocol (ROADMAP item 12). A step's effect remains when its reply is
   lost after it applied, or when the coordinator crashes after it
   applied and before its answer was staged: the history entry is
   written only after the answer, so the resume misses that step. A
   compensation runs twice when its reply is lost after it ran (the
   redrive sends it again), or when the coordinator crashes while it is
   in flight and it lands (the successor's log still lists it). *)
let test_core_explored () =
  let both_ends finals =
    List.mem Wal.Committed finals && List.mem Wal.Compensated finals
  in
  let classes, finals = explore ~saga:false in
  Alcotest.(check (list string)) "2PC keeps every invariant" [] classes;
  Alcotest.(check bool) "2PC commits and compensates" true (both_ends finals);
  let classes, finals = explore ~saga:true in
  Alcotest.(check (list string)) "sagas show their two known gaps"
    [ "a compensation ran twice"; "compensated while a step's effect remains" ]
    classes;
  Alcotest.(check bool) "sagas commit and compensate" true (both_ends finals)

let () =
  Alcotest.run "txn"
    [
      ( "two-phase",
        [
          Alcotest.test_case "commit applies everywhere" `Quick
            test_two_phase_commit;
          Alcotest.test_case "one no vote aborts everything" `Quick
            (test_two_phase_abort ~poked:false);
          Alcotest.test_case "a call after an abort does not re-drive it"
            `Quick (test_two_phase_abort ~poked:true);
          Alcotest.test_case "prepare locks contend and release" `Quick
            test_prepare_lock_contention;
          Alcotest.test_case "fenced participant is an abort vote" `Quick
            test_fenced_participant_aborts;
          Alcotest.test_case "fenced placement heals and commits" `Quick
            test_fenced_placement_heals_and_commits;
          Alcotest.test_case "back-to-back commits drive each participant once"
            `Quick test_commit_drives_once;
          Alcotest.test_case "a participant down across the decision commits"
            `Quick test_redrive_commits_after_outage;
        ] );
      ( "saga",
        [
          Alcotest.test_case "saga commits in order" `Quick test_saga_commit;
          Alcotest.test_case "failed step compensates the prefix" `Quick
            (test_saga_compensation ~poked:false);
          Alcotest.test_case "calls during compensation do not repeat it"
            `Quick (test_saga_compensation ~poked:true);
        ] );
      ( "recovery",
        [
          Alcotest.test_case "coordinator crash resumes durable commit"
            `Quick test_coordinator_crash_resumes_commit;
          Alcotest.test_case "an unreadable log fails loudly" `Quick
            test_unreadable_log_fails_loudly;
        ] );
      ( "input",
        [
          Alcotest.test_case "a malformed TxnRun changes nothing" `Quick
            test_malformed_run_rejected;
          Alcotest.test_case "Configure refuses an unknown store" `Quick
            test_configure_unknown_store;
        ] );
      ( "wal",
        [
          QCheck_alcotest.to_alcotest wal_matches_ref;
          Alcotest.test_case "a superseded incarnation writes nothing" `Quick
            test_wal_fencing;
          Alcotest.test_case "an unreadable log is not an empty one" `Quick
            test_wal_unreadable;
          Alcotest.test_case "a state change costs one transaction" `Quick
            test_change_words_flat;
        ] );
      ( "history",
        [
          Alcotest.test_case "marks, watermark, rewind" `Quick
            test_history_basics;
          Alcotest.test_case "staged writes survive checkpoint bursts" `Quick
            test_staged_survives_prune;
          Alcotest.test_case "WAL blobs ride beside version files" `Quick
            test_named_blobs;
          QCheck_alcotest.to_alcotest history_prune_prop;
        ] );
      ( "core",
        [
          Alcotest.test_case "every schedule in a small scope" `Quick
            test_core_explored;
        ] );
      ( "audit",
        [
          Alcotest.test_case "one violation per fault, none when clean"
            `Quick test_audit_detects_faults;
        ] );
    ]
