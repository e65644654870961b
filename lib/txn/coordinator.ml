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

type state = {
  mutable store_name : string option;
  mutable seq : int;
  txns : (string, Protocol.t ref) Hashtbl.t;
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
  let owner () = Wal.am_owner wal in

  (* Snapshot a participant's current state into the store under the
     transaction id; with a mark, then flip the entries the transaction
     wrote there to it. The mark lands even when the snapshot fails
     (participant unreachable) — the atomicity audit needs the verdict
     more than the bytes. No ownership guard: a mark always follows a
     decision that was durable while this incarnation owned the log, so
     a successor reaches the same verdict. *)
  let snapshot loid txnid mark =
    match store () with
    | None -> ()
    | Some s ->
        Runtime.invoke ctx ~dst:loid ~meth:"SaveState" ~args:[] ~env (fun r ->
            (match r with
            | Ok v -> ignore (Persistent.put ~txn:txnid s ~loid (Codec.encode v))
            | Error _ -> ());
            Option.iter (Persistent.mark_txn s ~loid ~txn:txnid) mark)
  in

  (* The one interpreter of the core's actions. [run] holds one
     transaction's core state and is updated before any action runs;
     [k] answers the client's TxnRun (a resumed transaction has none).
     Every answer and the redrive timer feed the core again, so one
     drive at a time carries the transaction to its end. *)
  let rec feed k run input =
    let next, actions = Protocol.step ~owner !run input in
    run := next;
    List.iter (perform k run) actions
  and perform k run action =
    let t = !run.Protocol.txn in
    match action with
    | Protocol.Send (req, i) ->
        let s = t.steps.(i) in
        let meth, args =
          match req with
          | Prepare ->
              ( "TxnPrepare",
                [
                  Value.Str t.id;
                  Value.Str s.meth;
                  Value.List s.args;
                  (* The participant remembers who decides this txn, for
                     its own crash-recovery (TxnVerify -> TxnStatus). *)
                  Loid.to_value self;
                ] )
          | Apply -> (s.meth, s.args)
          | Commit -> ("TxnCommit", [ Value.Str t.id ])
          | Abort -> ("TxnAbort", [ Value.Str t.id ])
          | Undo -> (s.cmeth, s.cargs)
        in
        Runtime.invoke ctx ~dst:s.dst ~meth ~args ~env (fun r ->
            feed k run (Protocol.Answer (req, i, r)))
    | Stage i -> snapshot t.steps.(i).dst t.id None
    | Mark (i, m) -> snapshot t.steps.(i).dst t.id (Some m)
    | Resolve m ->
        (* Every participant at once, the moment the decision falls: a
           prepare-time snapshot still in flight, or one a recovered
           incarnation decides without, inherits the verdict instead of
           staging forever. *)
        Option.iter
          (fun s ->
            Array.iter
              (fun (p : Wal.step) ->
                Persistent.mark_txn s ~loid:p.dst ~txn:t.id m)
              t.steps)
          (store ())
    | Log logged -> Wal.update wal logged
    | Close ->
        if t.phase = Compensated then st.aborted <- st.aborted + 1;
        Wal.finish wal t
    | Emit kind ->
        (match kind with
        | Event.Txn_commit _ -> st.committed <- st.committed + 1
        | Event.Compensate _ -> st.compensations <- st.compensations + 1
        | _ -> ());
        emit kind
    | Reply r -> k r
    | Arm_redrive ->
        (* The only retry inside an incarnation, far enough out (2× call
           timeout) that the runtime's own retransmissions have resolved
           either way. A timer that fires on a dead incarnation does
           nothing; its successor's recovery fold resumes the
           transaction. *)
        let delay = 2.0 *. (Runtime.config rt).Runtime.call_timeout in
        Script.at (Runtime.sim rt) ~time:(Runtime.now rt +. delay) (fun () ->
            if Runtime.is_live ctx.Runtime.self then feed k run Redrive)
  in

  (* Crash recovery: the core decides by presumed abort. The store read
     is here: a saga interrupted mid-flight compensates exactly the
     steps the store's history proves were applied (the log's pending
     list may lag by one step; the history is the authority). *)
  let resume run =
    st.resumed <- st.resumed + 1;
    let t = !run.Protocol.txn in
    let applied =
      match store () with
      | None -> []
      | Some s ->
          List.filter
            (fun i ->
              List.exists
                (fun (e : Persistent.History.entry) -> e.txn = Some t.id)
                (Persistent.history s ~loid:t.steps.(i).dst))
            (List.init (Array.length t.steps) Fun.id)
    in
    feed ignore run (Protocol.Resume applied)
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
                  let run = ref (Protocol.init t) in
                  Hashtbl.replace st.txns t.id run;
                  Wal.adopt wal t;
                  incr n;
                  resume run
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
            let pending = List.init (Array.length steps) Fun.id in
            let t = { Wal.id; mode; steps; phase = Running; pending } in
            let run = ref (Protocol.init t) in
            Hashtbl.replace st.txns id run;
            Wal.open_txn wal ~seq:st.seq t;
            feed k run Begin)
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
          | Some run -> Wal.phase_to_string !run.Protocol.txn.phase
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

  (* A store name no Jurisdiction registered is refused: taken, it would
     turn durability off without a word. *)
  let configure _ctx args _env k =
    match args with
    | [ v ] -> (
        match C.str_field v "store" with
        | Error msg -> Impl.bad_args k msg
        | Ok name when Magistrate_part.find_storage name = None ->
            Impl.bad_args k (Printf.sprintf "Configure: no store named %S" name)
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
