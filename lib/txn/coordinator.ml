module Value = Legion_wire.Value
module Codec = Legion_wire.Codec
module Loid = Legion_naming.Loid
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Impl = Legion_core.Impl
module C = Legion_core.Convert
module Persistent = Legion_store.Persistent
module Magistrate_part = Legion_jur.Magistrate_part
module Script = Legion_sim.Script

let unit_name = "legion.txn.coord"

(* A short stable tag for Txn_abort reasons, so traces and the E20
   tables aggregate; the epoch-fence case is the one the gate keys on
   (a fenced participant's vote is an abort, never a hang). *)
let reason_of = function
  | Err.Stale_epoch -> "stale-epoch"
  | Err.Txn_locked _ -> "locked"
  | Err.Overloaded _ | Err.Quota_exceeded _ -> "overloaded"
  | Err.Timeout -> "timeout"
  | Err.Refused _ | Err.Denied _ -> "refused"
  | Err.No_quorum _ -> "no-quorum"
  | Err.No_such_object | Err.Unreachable _ | Err.Corrupt _ -> "unreachable"
  | Err.Txn_aborted _ -> "nested-abort"
  | Err.No_such_method _ | Err.Bad_args _ -> "bad-call"
  | Err.Not_bound _ | Err.Internal _ -> "error"

type state = {
  mutable store_name : string option;
  mutable seq : int;
  txns : (string, Wal.txn) Hashtbl.t;
      (* Every transaction this incarnation has run, finished ones
         included: TxnStatus answers from it. *)
  mutable committed : int;
  mutable aborted : int;
  mutable compensations : int;
  mutable resumed : int;
  mutable needs_recovery : bool;
      (* The durable WAL has not been folded into [txns] yet. Set on
         every checkpoint restore; cleared by the first fold that
         succeeds. *)
}

let factory (ctx : Runtime.ctx) : Impl.part =
  let rt = ctx.Runtime.rt in
  let self = Runtime.proc_loid ctx.Runtime.self in
  let env = Env.of_self self in
  let st =
    {
      store_name = None;
      seq = 0;
      txns = Hashtbl.create 8;
      committed = 0;
      aborted = 0;
      compensations = 0;
      resumed = 0;
      needs_recovery = true;
    }
  in
  let emit kind =
    Runtime.emit rt ~host:(Runtime.proc_host ctx.Runtime.self) kind
  in
  let store () = Option.bind st.store_name Magistrate_part.find_storage in
  (* The commit decision is durable exactly when the Committing phase
     hits the transaction's log record — recovery never rolls back work
     the log says was decided. *)
  let wal = Wal.create self ~epoch:(Runtime.proc_epoch ctx.Runtime.self) store in

  (* Tag the participant's history with the txn outcome: snapshot its
     current state into the store under the txn id, then flip every
     entry the txn wrote to [mark]. The mark lands even when the
     snapshot fails (participant unreachable) — the atomicity audit
     needs the verdict more than the bytes. *)
  let record_mark ~loid ~txnid mark =
    match store () with
    | None -> ()
    | Some s ->
        (* No ownership guard here: a mark always follows a decision
           that was durable while this incarnation owned the WAL, so a
           successor re-driving the txn reaches the same verdict. *)
        Runtime.invoke ctx ~dst:loid ~meth:"SaveState" ~args:[] ~env (fun r ->
            (match r with
            | Ok v -> ignore (Persistent.put ~txn:txnid s ~loid (Codec.encode v))
            | Error _ -> ());
            Persistent.mark_txn s ~loid ~txn:txnid mark)
  in
  let snapshot_staged ~loid ~txnid =
    match store () with
    | None -> ()
    | Some s ->
        Runtime.invoke ctx ~dst:loid ~meth:"SaveState" ~args:[] ~env (fun r ->
            match r with
            | Ok v -> ignore (Persistent.put ~txn:txnid s ~loid (Codec.encode v))
            | Error _ -> ())
  in
  (* Resolve the verdict in the store for every participant the moment
     the decision falls. The prepare-time snapshots are asynchronous:
     one may still be in flight when the decision is made (or when a
     recovered incarnation decides from an incomplete history), and a
     snapshot landing after this call inherits the verdict instead of
     staging forever. The per-participant [record_mark] calls that
     follow the acks re-mark with the same verdict, which is the
     idempotent case. *)
  let resolve_all (t : Wal.txn) mark =
    match store () with
    | None -> ()
    | Some s ->
        Array.iter
          (fun (step : Wal.step) ->
            Persistent.mark_txn s ~loid:step.dst ~txn:t.id mark)
          t.steps
  in

  (* One drive per open transaction at a time. Three things start one:
     its decision, its own redrive timer after a drive that left acks
     missing, or [resume_txn] in a recovered incarnation. A drive ends
     by finishing the transaction, by arming that timer, or on finding
     a newer owner of the log; no call at the coordinator re-drives. *)
  let rec drive (t : Wal.txn) =
    match (t.phase, t.mode) with
    | Committing, _ -> commit_drive t
    | Compensating, Two_phase -> abort_drive t
    | Compensating, Saga -> comp_drive t
    | (Running | Committed | Compensated), _ -> ()

  (* A drive pass that could not finish re-arms itself: the only retry
     inside an incarnation, far enough out (2× call timeout) that the
     runtime's own retransmissions have resolved either way by the time
     it fires. A timer that fires on a dead incarnation does nothing;
     its successor's recovery fold resumes the transaction. *)
  and schedule_redrive (t : Wal.txn) =
    let delay = 2.0 *. (Runtime.config rt).Runtime.call_timeout in
    Script.at (Runtime.sim rt) ~time:(Runtime.now rt +. delay) (fun () ->
        if Runtime.is_live ctx.Runtime.self then drive t)

  (* A defence: with one drive per transaction only that drive reaches
     the end of the acks, but the transaction finishes once whatever
     calls this. *)
  and finish_commit (t : Wal.txn) =
    if t.phase = Committing then begin
      t.phase <- Committed;
      st.committed <- st.committed + 1;
      emit (Event.Txn_commit { txn = t.id; participants = Array.length t.steps });
      Wal.finish wal t
    end

  and commit_drive (t : Wal.txn) =
    if t.phase = Committing && Wal.am_owner wal then
      match t.pending with
      | [] -> finish_commit t
      | idxs ->
          let outstanding = ref (List.length idxs) in
          List.iter
            (fun i ->
              let s = t.steps.(i) in
              Runtime.invoke ctx ~dst:s.dst ~meth:"TxnCommit"
                ~args:[ Value.Str t.id ] ~env (fun r ->
                  (match r with
                  | Ok _ ->
                      t.pending <- List.filter (fun j -> j <> i) t.pending;
                      record_mark ~loid:s.dst ~txnid:t.id Persistent.Committed
                  | Error _ -> ());
                  decr outstanding;
                  if !outstanding = 0 then
                    if t.pending = [] then finish_commit t
                    else begin
                      Wal.update wal t;
                      schedule_redrive t
                    end))
            idxs

  and finish_abort (t : Wal.txn) =
    if t.phase = Compensating then begin
      t.phase <- Compensated;
      st.aborted <- st.aborted + 1;
      Wal.finish wal t
    end

  (* 2PC rollback: release every prepare lock. Acks are idempotent on
     the participant side, so retransmissions after a redrive are
     harmless. *)
  and abort_drive (t : Wal.txn) =
    if t.phase = Compensating && Wal.am_owner wal then
      match t.pending with
      | [] -> finish_abort t
      | idxs ->
          let outstanding = ref (List.length idxs) in
          List.iter
            (fun i ->
              let s = t.steps.(i) in
              Runtime.invoke ctx ~dst:s.dst ~meth:"TxnAbort"
                ~args:[ Value.Str t.id ] ~env (fun r ->
                  (match r with
                  | Ok _ ->
                      t.pending <- List.filter (fun j -> j <> i) t.pending;
                      st.compensations <- st.compensations + 1;
                      emit (Event.Compensate { txn = t.id; participant = s.dst });
                      record_mark ~loid:s.dst ~txnid:t.id Persistent.Compensated
                  | Error _ -> ());
                  decr outstanding;
                  if !outstanding = 0 then
                    if t.pending = [] then finish_abort t
                    else begin
                      Wal.update wal t;
                      schedule_redrive t
                    end))
            idxs

  (* Saga rollback: apply the typed compensations in reverse
     application order, one at a time (a compensation may depend on the
     later steps already being undone). *)
  and comp_drive (t : Wal.txn) =
    if t.phase = Compensating && Wal.am_owner wal then
      match t.pending with
      | [] -> finish_abort t
      | i :: rest ->
          let s = t.steps.(i) in
          Runtime.invoke ctx ~dst:s.dst ~meth:s.cmeth ~args:s.cargs ~env
            (fun r ->
              match r with
              | Ok _ ->
                  t.pending <- rest;
                  st.compensations <- st.compensations + 1;
                  emit (Event.Compensate { txn = t.id; participant = s.dst });
                  record_mark ~loid:s.dst ~txnid:t.id Persistent.Compensated;
                  Wal.update wal t;
                  comp_drive t
              | Error _ -> schedule_redrive t)
  in

  let all_idxs (t : Wal.txn) = List.init (Array.length t.steps) Fun.id in

  (* 2PC forward path: prepares race in parallel; the decision falls
     when the last vote lands. The client learns the outcome at the
     decision — commit acks drain asynchronously afterwards. *)
  let start_two_phase (t : Wal.txn) k =
    let n = Array.length t.steps in
    let votes = ref 0 in
    let veto = ref None in
    Array.iter
      (fun (s : Wal.step) ->
        Runtime.invoke ctx ~dst:s.dst ~meth:"TxnPrepare"
          ~args:
            [
              Value.Str t.id;
              Value.Str s.meth;
              Value.List s.args;
              (* The participant remembers who decides this txn, for
                 its own crash-recovery (TxnVerify -> TxnStatus). *)
              Loid.to_value self;
            ]
          ~env (fun r ->
            (match r with
            | Ok _ ->
                emit (Event.Prepare { txn = t.id; participant = s.dst });
                snapshot_staged ~loid:s.dst ~txnid:t.id
            | Error e -> if !veto = None then veto := Some (reason_of e));
            incr votes;
            if !votes = n then
              if not (Wal.am_owner wal) then
                (* A recovered incarnation took over mid-prepare; it
                   folded this txn as Running and is aborting it. Do
                   not promise a commit the successor will roll back. *)
                k (Error Err.Stale_epoch)
              else
                match !veto with
                | None ->
                    t.phase <- Committing;
                    Wal.update wal t;
                    resolve_all t Persistent.Committed;
                    k (Ok (Value.Str t.id));
                    commit_drive t
                | Some reason ->
                    emit (Event.Txn_abort { txn = t.id; reason });
                    t.phase <- Compensating;
                    t.pending <- all_idxs t;
                    Wal.update wal t;
                    resolve_all t Persistent.Compensated;
                    k (Error (Err.Txn_aborted { txn = t.id }));
                    abort_drive t))
      t.steps
  in

  (* Saga forward path: steps apply sequentially and immediately; a
     failure turns the applied prefix around. *)
  let rec saga_forward (t : Wal.txn) k =
    if not (Wal.am_owner wal) then k (Error Err.Stale_epoch)
    else
      match t.pending with
    | [] ->
        t.phase <- Committed;
        st.committed <- st.committed + 1;
        resolve_all t Persistent.Committed;
        Array.iter
          (fun (s : Wal.step) ->
            record_mark ~loid:s.dst ~txnid:t.id Persistent.Committed)
          t.steps;
        emit
          (Event.Txn_commit { txn = t.id; participants = Array.length t.steps });
        Wal.finish wal t;
        k (Ok (Value.Str t.id))
    | i :: rest ->
        let s = t.steps.(i) in
        Runtime.invoke ctx ~dst:s.dst ~meth:s.meth ~args:s.args ~env (fun r ->
            match r with
            | Ok _ ->
                emit (Event.Prepare { txn = t.id; participant = s.dst });
                snapshot_staged ~loid:s.dst ~txnid:t.id;
                t.pending <- rest;
                Wal.update wal t;
                saga_forward t k
            | Error e ->
                emit (Event.Txn_abort { txn = t.id; reason = reason_of e });
                t.phase <- Compensating;
                t.pending <- List.rev (List.init i Fun.id);
                Wal.update wal t;
                resolve_all t Persistent.Compensated;
                k (Error (Err.Txn_aborted { txn = t.id }));
                comp_drive t)
  in

  (* Crash recovery: reconstruct every in-doubt transaction from the
     WAL and re-drive it. The rule is the classic presumed-abort 2PC
     one — a durable Committing record means the commit was promised to
     the client and must finish; anything still Running aborts. A saga
     interrupted mid-flight compensates exactly the steps the store's
     history proves were applied (the WAL's pending list may lag by one
     step; the history is the authority). *)
  let resume_txn (t : Wal.txn) =
    st.resumed <- st.resumed + 1;
    match t.phase with
    | Committing ->
        emit (Event.Resume { txn = t.id; decision = "commit" });
        commit_drive t
    | Running -> (
        emit (Event.Resume { txn = t.id; decision = "abort" });
        emit (Event.Txn_abort { txn = t.id; reason = "crash-recovery" });
        t.phase <- Compensating;
        resolve_all t Persistent.Compensated;
        match t.mode with
        | Two_phase ->
            t.pending <- all_idxs t;
            Wal.update wal t;
            abort_drive t
        | Saga ->
            let applied =
              match store () with
              | None -> []
              | Some s ->
                  List.filter
                    (fun i ->
                      let dst = t.steps.(i).dst in
                      List.exists
                        (fun (e : Persistent.History.entry) ->
                          e.Persistent.History.txn = Some t.id)
                        (Persistent.history s ~loid:dst))
                    (all_idxs t)
            in
            t.pending <- List.rev applied;
            Wal.update wal t;
            comp_drive t)
    | Compensating -> (
        emit (Event.Resume { txn = t.id; decision = "abort" });
        match t.mode with
        | Two_phase -> abort_drive t
        | Saga -> comp_drive t)
    | Committed | Compensated -> ()
  in

  (* Fold the durable WAL back into memory, synchronously. This MUST
     happen before the coordinator takes on any new work: a TxnRun on a
     freshly restored instance would otherwise overwrite the log
     (destroying the in-doubt records) and re-issue their sequence
     numbers. A log that does not read leaves [needs_recovery] set, so
     every later call retries the fold rather than work from a state the
     log contradicts. The fold is idempotent — ids already live in
     [st.txns] are left alone (a double resume, or the TxnResume poke
     racing a lazy first-touch fold). *)
  let recover_from_wal () : (int, string) result =
    match store () with
    | None -> Ok 0
    | Some _ -> (
        match Wal.recover wal with
        | Error _ as e -> e
        | Ok None ->
            st.needs_recovery <- false;
            Ok 0
        | Ok (Some (seq, txns)) ->
            st.needs_recovery <- false;
            st.seq <- Stdlib.max st.seq seq;
            let n = ref 0 in
            List.iter
              (fun (t : Wal.txn) ->
                if not (Hashtbl.mem st.txns t.id) then begin
                  Hashtbl.replace st.txns t.id t;
                  Wal.adopt wal t;
                  incr n;
                  resume_txn t
                end)
              txns;
            (* Claim ownership durably, even when nothing needed a
               resume: any older incarnation still running is fenced
               from this point on. *)
            Wal.claim wal ~seq:st.seq;
            Ok !n)
  in
  (* Every method but Configure runs only on a folded log; while the
     fold fails it answers the fold's error and writes nothing. *)
  let after_fold k f =
    match if st.needs_recovery then recover_from_wal () else Ok 0 with
    | Error msg -> k (Error (Err.Internal msg))
    | Ok _ -> f ()
  in

  let txn_resume _ctx args _env k =
    match args with
    | [] -> (
        match recover_from_wal () with
        | Ok n -> k (Ok (Value.Int n))
        | Error msg -> k (Error (Err.Internal msg)))
    | _ -> Impl.bad_args k "TxnResume takes no arguments"
  in

  let txn_run _ctx args _env k =
    after_fold k @@ fun () ->
    match args with
    | [ Value.Str mode_s; Value.List steps_v ] -> (
        let decoded =
          let ( let* ) r f = Result.bind r f in
          let* mode = Wal.mode_of_string mode_s in
          let* steps =
            List.fold_left
              (fun acc sv ->
                Result.bind acc (fun acc ->
                    Result.map (fun s -> s :: acc) (Wal.step_of_value sv)))
              (Ok []) steps_v
            |> Result.map List.rev
          in
          let* () = if steps = [] then Error "no steps" else Ok () in
          let rec distinct = function
            | [] -> Ok ()
            | (s : Wal.step) :: rest ->
                if List.exists (fun (x : Wal.step) -> Loid.equal x.dst s.dst) rest
                then Error "duplicate participant"
                else distinct rest
          in
          let* () = distinct steps in
          let* () =
            if
              mode = Wal.Saga
              && List.exists (fun (s : Wal.step) -> s.cmeth = "") steps
            then Error "saga steps require a compensation method"
            else Ok ()
          in
          Ok (mode, Array.of_list steps)
        in
        match decoded with
        | Error msg -> Impl.bad_args k ("TxnRun: " ^ msg)
        | Ok (mode, steps) ->
            st.seq <- st.seq + 1;
            let id = Printf.sprintf "%s.%d" (Loid.to_string self) st.seq in
            let t = { Wal.id; mode; steps; phase = Running; pending = [] } in
            t.pending <- all_idxs t;
            Hashtbl.replace st.txns id t;
            Wal.open_txn wal ~seq:st.seq t;
            (match mode with
            | Two_phase -> start_two_phase t k
            | Saga -> saga_forward t k))
    | _ -> Impl.bad_args k "TxnRun expects (mode, steps)"
  in

  (* TxnStatus(txn): the authoritative phase of a transaction, for
     participants re-validating a resurrected prepare lock. "unknown"
     covers both a never-seen id and a finished transaction forgotten
     across a coordinator restart — either way, presumed abort. *)
  let txn_status _ctx args _env k =
    (* A participant asking before the WAL fold would get a wrong
       "unknown" and release a lock the decision needs. *)
    after_fold k @@ fun () ->
    match args with
    | [ Value.Str id ] ->
        let phase =
          match Hashtbl.find_opt st.txns id with
          | Some t -> Wal.phase_to_string t.phase
          | None -> "unknown"
        in
        k (Ok (Value.Str phase))
    | _ -> Impl.bad_args k "TxnStatus expects one txn id"
  in

  let txn_stats _ctx args _env k =
    after_fold k @@ fun () ->
    match args with
    | [] ->
        k
          (Ok
             (Value.Record
                [
                  ("committed", Value.Int st.committed);
                  ("aborted", Value.Int st.aborted);
                  ("compensations", Value.Int st.compensations);
                  ("resumed", Value.Int st.resumed);
                  ("indoubt", Value.Int (Wal.open_count wal));
                ]))
    | _ -> Impl.bad_args k "TxnStats takes no arguments"
  in

  let configure _ctx args _env k =
    match args with
    | [ v ] -> (
        match C.str_field v "store" with
        | Error msg -> Impl.bad_args k msg
        | Ok name ->
            st.store_name <- Some name;
            k Impl.ok_unit)
    | _ -> Impl.bad_args k "Configure expects one record"
  in

  let save () =
    Value.Record
      [
        ("store", C.vopt Value.of_string st.store_name);
        ("seq", Value.Int st.seq);
        ("cm", Value.Int st.committed);
        ("ab", Value.Int st.aborted);
        ("cp", Value.Int st.compensations);
        ("rs", Value.Int st.resumed);
      ]
  in
  let restore v =
    let int_or d name =
      match Value.field_opt v name with Some (Value.Int i) -> i | _ -> d
    in
    (match Value.field_opt v "store" with
    | Some (Value.List [ Value.Str s ]) -> st.store_name <- Some s
    | _ -> st.store_name <- None);
    st.seq <- int_or 0 "seq";
    st.committed <- int_or 0 "cm";
    st.aborted <- int_or 0 "ab";
    st.compensations <- int_or 0 "cp";
    st.resumed <- int_or 0 "rs";
    st.needs_recovery <- true;
    Ok ()
  in

  Impl.part
    ~methods:
      [
        ("Configure", configure);
        ("TxnRun", txn_run);
        ("TxnResume", txn_resume);
        ("TxnStatus", txn_status);
        ("TxnStats", txn_stats);
      ]
    ~save ~restore unit_name

let register () =
  Impl.register unit_name factory;
  (* Crash-recovery hook: after the responsible class reactivates a
     coordinator instance, it invokes TxnResume so the WAL's in-doubt
     transactions finish or roll back instead of hanging forever. *)
  Impl.register_resume ~unit_name ~meth:"TxnResume"
