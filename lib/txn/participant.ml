module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module C = Legion_core.Convert
module Script = Legion_sim.Script

let unit_name = "legion.txn.participant"

type lock = {
  txn : string;
  meth : string;
  args : Value.t list;
  coord : Loid.t option;
      (* Who to ask when a restored checkpoint resurrects this lock
         ([None] on a legacy three-argument prepare). *)
}

let lock_to_value l =
  Value.Record
    [
      ("t", Value.Str l.txn);
      ("m", Value.Str l.meth);
      ("a", Value.List l.args);
      ("c", C.vopt Loid.to_value l.coord);
    ]

let lock_of_value v =
  let ( let* ) r f = Result.bind r f in
  let* txn = C.str_field v "t" in
  let* meth = C.str_field v "m" in
  let args =
    match Value.field_opt v "a" with Some (Value.List l) -> l | _ -> []
  in
  let coord =
    match Value.field_opt v "c" with
    | Some (Value.List [ cv ]) -> Result.to_option (Loid.of_value cv)
    | _ -> None
  in
  Ok { txn; meth; args; coord }

let factory (ctx : Runtime.ctx) : Impl.part =
  let self = Runtime.proc_loid ctx.Runtime.self in
  let env = Env.of_self self in
  let lock : lock option ref = ref None in
  let retry_hint () =
    (Runtime.config ctx.Runtime.rt).Runtime.call_timeout /. 8.
  in
  let verify_armed = ref false in

  (* TxnVerify(): crash-recovery for the lock itself. A reactivated
     participant restores the checkpoint's lock — which may belong to a
     transaction that finished while the checkpoint aged (the classic
     stale-lock resurrection). The state snapshot is atomic across
     units, so a restored lock means the staged method was NOT applied
     as of the restored state; asking the coordinator for the verdict
     makes the resolution safe: a decided commit applies now (the
     redriven TxnCommit then acknowledges idempotently), a dead or
     rolled-back transaction releases, and an undecided one leaves the
     lock for the coordinator's own recovery to drive. *)
  let rec txn_verify _ctx args _env k =
    match args with
    | [] -> (
        match !lock with
        | None -> k (Ok (Value.Int 0))
        | Some { coord = None; _ } -> k (Ok (Value.Int 0))
        | Some ({ coord = Some co; _ } as l) ->
            Runtime.invoke ctx ~dst:co ~meth:"TxnStatus"
              ~args:[ Value.Str l.txn ] ~env (fun r ->
                (* The verdict round-trip races the coordinator's own
                   redrive: a TxnCommit/TxnAbort may have resolved this
                   lock (and possibly a new txn taken it) while the
                   TxnStatus call was in flight. Act only if the lock
                   is still the one sampled above — otherwise the
                   resolution already happened and acting again would
                   double-apply the staged method. *)
                let still_held () =
                  match !lock with
                  | Some l' when String.equal l'.txn l.txn -> true
                  | _ -> false
                in
                match r with
                | Ok (Value.Str ("committing" | "committed")) ->
                    if still_held () then begin
                      lock := None;
                      Runtime.invoke ctx ~dst:self ~meth:l.meth ~args:l.args
                        ~env (fun r ->
                          match r with
                          | Ok _ -> k (Ok (Value.Int 1))
                          | Error e -> k (Error e))
                    end
                    else k (Ok (Value.Int 0))
                | Ok (Value.Str ("compensating" | "compensated" | "unknown"))
                  ->
                    if still_held () then lock := None;
                    k (Ok (Value.Int 1))
                | Ok _ ->
                    (* Undecided ("running"): the coordinator answered
                       and will normally drive the verdict here — but
                       keep watching in case that incarnation dies
                       before it does. *)
                    rearm_verify ();
                    k (Ok (Value.Int 0))
                | Error _ ->
                    (* Coordinator unreachable. Keep the vote standing,
                       but re-ask later: the activation-time TxnVerify
                       poke is fire-and-forget, so a verdict round-trip
                       lost to a fault window would otherwise orphan a
                       resurrected lock forever — the coordinator has
                       already collected its acks and believes every
                       lock is released. *)
                    rearm_verify ();
                    k (Ok (Value.Int 0))))
    | _ -> Impl.bad_args k "TxnVerify takes no arguments"

  (* The lock watchdog: one outstanding timer at a time; it no-ops when
     the lock resolved meanwhile or this incarnation was deactivated,
     and txn_verify re-arms it for every keep-standing outcome, so a
     held lock is re-validated until someone resolves it. *)
  and rearm_verify () =
    if not !verify_armed then begin
      verify_armed := true;
      let rt = ctx.Runtime.rt in
      let delay = 2.0 *. (Runtime.config rt).Runtime.call_timeout in
      Script.at (Runtime.sim rt) ~time:(Runtime.now rt +. delay) (fun () ->
          verify_armed := false;
          if Runtime.is_live ctx.Runtime.self && !lock <> None then
            txn_verify ctx [] env (fun _ -> ()))
    end
  in

  (* TxnPrepare(txn, meth, args): take the prepare lock and vote. The
     staged method's name is validated now (via the composite's own
     GetMethodNames) so that the later TxnCommit cannot fail with
     No_such_method. Its arguments are not: a call the method rejects
     still votes yes and fails at commit.

     Every lock with a named coordinator also arms the verification
     watchdog (below): the runtime's exactly-once table forgets an entry
     evicted past its capacity, and a rebind re-invokes under a fresh
     call id it never saw, so a prepare can re-execute after the
     transaction was already resolved — a lock nobody will ever release
     unless this participant re-validates it itself. *)
  let do_prepare ~txn ~meth ~margs ~coord k =
    match !lock with
    | Some l when not (String.equal l.txn txn) ->
        (* Held by another transaction: a retryable refusal, shed
           exactly like an overloaded call — the lock clears as
           soon as the holder commits or aborts. *)
        k (Error (Err.Txn_locked { holder = l.txn; retry_after = retry_hint () }))
    | Some _ ->
        (* Duplicate prepare (coordinator retransmission): the
           standing yes vote holds. *)
        k Impl.ok_unit
    | None ->
        (* Reserve the lock BEFORE the asynchronous repertoire check:
           two in-flight prepares must never both pass the free-lock
           test and double-stage — the second would silently overwrite
           the first's yes vote and its commit would apply nothing. A
           concurrent prepare now sees Txn_locked and retries; the
           reservation is released if validation refuses. *)
        lock := Some { txn; meth; args = margs; coord };
        Runtime.invoke ctx ~dst:self ~meth:"GetMethodNames" ~args:[] ~env
          (fun r ->
            let known =
              match r with
              | Ok (Value.List names) ->
                  List.exists
                    (function
                      | Value.Str n -> String.equal n meth | _ -> false)
                    names
              | _ -> false
            in
            if known then begin
              if coord <> None then rearm_verify ();
              k Impl.ok_unit
            end
            else begin
              (match !lock with
              | Some l when String.equal l.txn txn -> lock := None
              | _ -> ());
              k (Error (Err.Refused (Printf.sprintf
                   "cannot stage unknown method %S" meth)))
            end)
  in
  let txn_prepare _ctx args _env k =
    match args with
    | [ Value.Str txn; Value.Str meth; Value.List margs ] ->
        do_prepare ~txn ~meth ~margs ~coord:None k
    | [ Value.Str txn; Value.Str meth; Value.List margs; cv ] ->
        do_prepare ~txn ~meth ~margs
          ~coord:(Result.to_option (Loid.of_value cv))
          k
    | _ -> Impl.bad_args k "TxnPrepare expects (txn, meth, args[, coord])"
  in

  (* TxnCommit(txn): apply the staged method. The lock is cleared
     before applying so a retransmitted commit is answered idempotently
     instead of applying twice. *)
  let txn_commit _ctx args _env k =
    match args with
    | [ Value.Str txn ] -> (
        match !lock with
        | Some l when String.equal l.txn txn ->
            lock := None;
            Runtime.invoke ctx ~dst:self ~meth:l.meth ~args:l.args ~env
              (fun r ->
                match r with Ok _ -> k Impl.ok_unit | Error e -> k (Error e))
        | _ ->
            (* No lock under this txn: already committed (retransmit)
               or never prepared (abort raced ahead) — both are safe to
               acknowledge. *)
            k Impl.ok_unit)
    | _ -> Impl.bad_args k "TxnCommit expects one txn id"
  in

  let txn_abort _ctx args _env k =
    match args with
    | [ Value.Str txn ] ->
        (match !lock with
        | Some l when String.equal l.txn txn -> lock := None
        | _ -> ());
        k Impl.ok_unit
    | _ -> Impl.bad_args k "TxnAbort expects one txn id"
  in

  (* TxnHeld(): the prepare lock's holder, as an optional — the E20
     orphaned-lock probe. *)
  let txn_held _ctx args _env k =
    match args with
    | [] ->
        k (Ok (C.vopt (fun l -> Value.Str l.txn) !lock))
    | _ -> Impl.bad_args k "TxnHeld takes no arguments"
  in

  let save () =
    Value.Record [ ("lk", C.vopt lock_to_value !lock) ]
  in
  let restore v =
    match Value.field_opt v "lk" with
    | None | Some (Value.List []) | Some Value.Unit ->
        lock := None;
        Ok ()
    | Some (Value.List [ lv ]) ->
        Result.map
          (fun l ->
            lock := Some l;
            (* A resurrected lock must be re-validated even if the
               class's activation-time TxnVerify poke is lost in
               flight — arm the participant's own retry chain now. *)
            if l.coord <> None then rearm_verify ())
          (lock_of_value lv)
    | Some _ -> Error "participant: malformed lock field"
  in

  Impl.part
    ~methods:
      [
        ("TxnPrepare", txn_prepare);
        ("TxnCommit", txn_commit);
        ("TxnAbort", txn_abort);
        ("TxnHeld", txn_held);
        ("TxnVerify", txn_verify);
      ]
    ~save ~restore unit_name

let register () =
  Impl.register unit_name factory;
  (* Reactivated participants re-validate any restored prepare lock
     against its coordinator (stale-lock resurrection, see TxnVerify). *)
  Impl.register_resume ~unit_name ~meth:"TxnVerify"
