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

let test_two_phase_abort () =
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
  System.run_for sys 3.0;
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

let test_saga_compensation () =
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

let test_coordinator_crash_resumes_commit () =
  let sys = boot ~seed:(Int64.add base_seed 6L) () in
  let ctx = System.client sys () in
  let obs = System.obs sys in
  let rt = System.rt sys in
  let cls = derive_participant_class sys ctx in
  let coord_cls = derive_coord_class sys ctx in
  let infra = System.infra_hosts sys in
  (* A coordinator on a crashable (non-infrastructure) host. *)
  let co, victim =
    match Legion.Txn.create_coordinator sys ctx ~cls:coord_cls with
    | co, Some h when not (List.mem h infra) -> (co, h)
    | _ -> Alcotest.fail "no coordinator landed off-infrastructure"
  in
  (* Participants on hosts that survive the crash. *)
  let a, b =
    let rec pick acc n =
      if List.length acc = 2 then (List.nth acc 0, List.nth acc 1)
      else if n = 0 then Alcotest.fail "no surviving-host participants"
      else
        let o = Api.create_object_exn sys ctx ~cls ~eager:true () in
        match Runtime.find_proc rt o with
        | Some p when Runtime.proc_host p <> victim -> pick (o :: acc) (n - 1)
        | _ -> pick acc n
    in
    pick [] 12
  in
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

let () =
  Alcotest.run "txn"
    [
      ( "two-phase",
        [
          Alcotest.test_case "commit applies everywhere" `Quick
            test_two_phase_commit;
          Alcotest.test_case "one no vote aborts everything" `Quick
            test_two_phase_abort;
          Alcotest.test_case "prepare locks contend and release" `Quick
            test_prepare_lock_contention;
          Alcotest.test_case "fenced participant is an abort vote" `Quick
            test_fenced_participant_aborts;
          Alcotest.test_case "fenced placement heals and commits" `Quick
            test_fenced_placement_heals_and_commits;
        ] );
      ( "saga",
        [
          Alcotest.test_case "saga commits in order" `Quick test_saga_commit;
          Alcotest.test_case "failed step compensates the prefix" `Quick
            test_saga_compensation;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "coordinator crash resumes durable commit"
            `Quick test_coordinator_crash_resumes_commit;
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
      ( "audit",
        [
          Alcotest.test_case "one violation per fault, none when clean"
            `Quick test_audit_detects_faults;
        ] );
    ]
