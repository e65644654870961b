module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Env = Legion_sec.Env
module Policy = Legion_sec.Policy
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module C = Legion_core.Convert
module Opr = Legion_core.Opr
module Persistent = Legion_store.Persistent
module Opa = Legion_store.Persistent.Opa
module Engine = Legion_sim.Engine
module Event = Legion_obs.Event

let unit_name = "legion.magistrate"

let storages : (string, Persistent.t) Hashtbl.t = Hashtbl.create 8

let register_storage name store = Hashtbl.replace storages name store
let find_storage name = Hashtbl.find_opt storages name

type record = {
  loid : Loid.t;
  mutable opa : Opa.t option;
  mutable active : (Loid.t * Address.t) option;  (* (host object, address) *)
  (* A Move/TransferObjects in flight: destination Magistrate, plus the
     Activate requests held until the transfer settles. Answering an
     Activate locally mid-transfer would re-activate the object here
     right before the record is removed, stranding a live placement
     under a Magistrate that no longer manages it. Soft state — never
     persisted (a restored Magistrate has no transfer in flight). *)
  mutable moving : Loid.t option;
  mutable held : (Loid.t option -> unit) list;
  (* At-least-once delivery can hand us the same Move twice: the
     duplicate must join the in-flight transfer and share its outcome —
     refusing it would answer the caller's call id early, letting the
     caller act while the transfer is still mutating both record
     tables. *)
  mutable movers : ((Value.t, Err.t) result -> unit) list;
  (* Reactivation in flight: later Activate requests join it instead of
     starting their own. Two racing reactivations each bump the epoch
     but only one spawn wins, leaving a live placement that is fenced
     on every call — permanently, because rebinding just finds the same
     placement again. Soft state, like [moving]. *)
  mutable activating : ((Value.t, Err.t) result -> unit) list option;
}

type state = {
  mutable jurisdiction : string;
  mutable hosts : Loid.t list;
  mutable activation_policy : Policy.t;
  records : record Loid.Lru.t;
      (* Newest first, an order that serialization, ListObjects,
         TransferObjects and the checkpoint sweep make observable.
         Records are only [peek]ed, and a LOID is added once
         (StoreObject and AdoptObject update its record in place), so
         the order is insertion order. *)
  mutable host_load : int Loid.Table.t;  (* local activation counts *)
  mutable activations : int;
  mutable migrations : int;
  (* Failure-detector soft state: re-derived by heartbeats after a
     restore, so deliberately not persisted. *)
  mutable dead_hosts : Loid.t list;
  mutable missed : (Loid.t * int) list;  (* consecutive missed beats *)
}

let state_value ?(hosts = []) ?(activation_policy = Policy.Allow_all)
    ~jurisdiction () =
  Value.Record
    [
      ("jur", Value.Str jurisdiction);
      ("hosts", C.vloids hosts);
      ("policy", Policy.to_value activation_policy);
      ("records", Value.List []);
    ]

let record_to_value r =
  Value.Record
    [
      ("loid", Loid.to_value r.loid);
      ("opa", C.vopt Opa.to_value r.opa);
      ( "active",
        match r.active with
        | None -> Value.List []
        | Some (h, a) ->
            Value.List
              [ Value.Record [ ("h", Loid.to_value h); ("a", Address.to_value a) ] ]
      );
    ]

let fresh_record loid opa =
  { loid; opa; active = None; moving = None; held = []; movers = []; activating = None }

let ( let* ) r f = Result.bind r f

let record_of_value v =
  let* loid = C.loid_field v "loid" in
  let* opa = C.opt_field v "opa" Opa.of_value in
  let* active =
    C.opt_field v "active" (fun av ->
        let* h = C.loid_field av "h" in
        let* a_v = C.field av "a" in
        let* a = Address.of_value a_v in
        Ok (h, a))
  in
  Ok { (fresh_record loid opa) with active }

let factory (ctx : Runtime.ctx) : Impl.part =
  let rt = ctx.Runtime.rt in
  let self = Runtime.proc_loid ctx.Runtime.self in
  let st =
    {
      jurisdiction = "";
      hosts = [];
      activation_policy = Policy.Allow_all;
      records = Loid.Lru.create ~key:(fun r -> r.loid) ();
      host_load = Loid.Table.create ();
      activations = 0;
      migrations = 0;
      dead_hosts = [];
      missed = [];
    }
  in
  let env = Env.of_self self in
  let invoke dst meth args k = Runtime.invoke ctx ~dst ~meth ~args ~env k in
  let invoke_for call_env dst meth args k =
    Runtime.invoke ctx ~dst ~meth ~args
      ~env:(Env.delegate call_env ~calling:self) k
  in

  let storage () =
    match find_storage st.jurisdiction with
    | Some s -> Ok s
    | None ->
        Error
          (Err.Internal
             (Printf.sprintf "jurisdiction %S has no registered storage"
                st.jurisdiction))
  in
  let find_record loid = Loid.Lru.peek st.records loid in
  (* A snapshot, newest first: later adds and removes do not touch it. *)
  let records () = Loid.Lru.fold List.cons st.records [] in
  let load_of host =
    Option.value ~default:0 (Loid.Table.find st.host_load host)
  in
  let bump_load host = Loid.Table.set st.host_load host (load_of host + 1) in
  let is_dead h = List.exists (Loid.equal h) st.dead_hosts in
  (* Hosts the failure detector has confirmed dead are skipped by
     placement decisions until a heartbeat reaches them again. *)
  let live_hosts () = List.filter (fun h -> not (is_dead h)) st.hosts in
  let emit_ev kind =
    Runtime.emit rt ~host:(Runtime.proc_host ctx.Runtime.self) kind
  in
  let check_policy ~meth call_env k yes =
    match Policy.check st.activation_policy ~meth ~env:call_env with
    | Policy.Allow -> yes ()
    | Policy.Deny reason ->
        (* The error stays [Refused] — the Magistrate's historical §3.8
           "requests rather than commands" answer — but the rejection is
           attributed like any other policy denial: a tenant-tagged
           [Deny] event for the per-tenant tables. *)
        let (_tenant : string) =
          Runtime.note_deny rt ctx.Runtime.self ~meth ~env:call_env
        in
        k (Error (Err.Refused reason))
  in
  let mint_binding loid address =
    Runtime.mint_binding rt ~epoch:(Runtime.current_epoch rt loid) ~loid address
  in
  (* Tell the responsible class about magistrate-set changes so its
     Current Magistrate List stays accurate. The continuation fires once
     the class has acknowledged (or the notification definitively
     failed): Copy/Move/Delete must not report success while the class
     still points at the old magistrate — its Not_bound answers are
     terminal for binding resolution, unlike stale addresses which the
     §4.1.4 retry machinery repairs. Class objects themselves are
     located through LegionClass pairs, so only instances are notified. *)
  let notify_class loid ~add ~remove k =
    if Loid.is_class loid then k ()
    else
      (* The class may shed the notification under admission pressure —
         exactly when migrations are busiest. A dropped notification
         leaves the Current Magistrate List pointing at a Magistrate
         that no longer holds the record, which is permanent: nothing
         later repairs it. Retry sheds with their advertised backoff. *)
      let rec go attempts =
        invoke (Loid.responsible_class loid) "NotifyMagistrates"
          [ Loid.to_value loid; C.vloids add; C.vloids remove ]
          (fun r ->
            match r with
            | Error e when attempts > 0 && Err.is_retryable e ->
                let delay = Option.value ~default:0.05 (Err.retry_after e) in
                ignore
                  (Engine.schedule (Runtime.sim rt) ~delay (fun () ->
                       go (attempts - 1)))
            | _ -> k ())
      in
      go 5
  in

  (* Host selection: explicit hint, else a Scheduling Agent if given,
     else the locally least-loaded host (§3.8: Magistrates have "some
     default scheduling behavior" while real policies live in
     Scheduling Agents). *)
  let pick_host ~env:call_env ~host_hint ~sched k =
    match host_hint with
    | Some h -> k (Ok h)
    | None -> (
        match live_hosts () with
        | [] -> k (Error (Err.Refused "jurisdiction has no hosts"))
        | hosts -> (
            match sched with
            | Some agent ->
                ignore call_env;
                let candidates =
                  Value.List
                    (List.map
                       (fun h ->
                         Value.Record
                           [ ("host", Loid.to_value h); ("load", Value.Int (load_of h)) ])
                       hosts)
                in
                invoke agent "PickHost" [ candidates ] (fun r ->
                    match r with
                    | Ok v -> (
                        match C.loid_arg v with
                        | Ok h -> k (Ok h)
                        | Error msg -> k (Error (Err.Internal msg)))
                    | Error e -> k (Error e))
            | None ->
                let best =
                  List.fold_left
                    (fun acc h ->
                      match acc with
                      | Some (_, l) when l <= load_of h -> acc
                      | _ -> Some (h, load_of h))
                    None hosts
                in
                (match best with
                | Some (h, _) -> k (Ok h)
                | None -> k (Error (Err.Refused "jurisdiction has no hosts")))))
  in

  let do_activate_leader ~env:call_env loid record ~host_hint ~sched k =
    match record.opa with
    | None -> k (Error (Err.Not_bound "no persistent representation held here"))
    | Some opa -> (
        match storage () with
        | Error e -> k (Error e)
        | Ok store -> (
            match Persistent.get store opa with
            | None -> k (Error (Err.Internal "persistent representation missing"))
            | Some blob ->
                (* Every reactivation opens a new incarnation: the spawn
                   below picks the bumped epoch up, and any placement of
                   an older incarnation still lingering somewhere is
                   fenced instead of answering. *)
                ignore (Runtime.bump_epoch rt loid);
                (* On a delivery failure (the chosen Host Object is dead
                   or unreachable) fall over to the remaining hosts — a
                   crashed host must not wedge its whole Jurisdiction. *)
                let try_host host ~fallbacks =
                  let probe = (Runtime.config rt).Runtime.call_timeout /. 10.0 in
                  let rec attempt host fallbacks =
                    Runtime.invoke ctx ~timeout:probe ~dst:host ~meth:"Activate"
                      ~args:[ Loid.to_value loid; Value.Blob blob ]
                      ~env:(Env.delegate call_env ~calling:self)
                      (fun r ->
                        (* Fall over on delivery failures (dead host)
                           and on refusals (a Host Object at capacity or
                           exercising its own access policy, §3.9). *)
                        let should_fall_over = function
                          | Err.Refused _ -> true
                          | e -> Err.is_delivery_failure e
                        in
                        match r with
                        | Error e when should_fall_over e -> (
                            match fallbacks with
                            | [] -> k (Error e)
                            | h :: rest -> attempt h rest)
                        | Error e -> k (Error e)
                        | Ok reply -> (
                            let addr =
                              let* av = C.field reply "addr" in
                              Address.of_value av
                            in
                            match addr with
                            | Error msg -> k (Error (Err.Internal msg))
                            | Ok address ->
                                record.active <- Some (host, address);
                                st.activations <- st.activations + 1;
                                bump_load host;
                                k (Ok (Binding.to_value (mint_binding loid address)))))
                  in
                  attempt host fallbacks
                in
                pick_host ~env:call_env ~host_hint ~sched (fun r ->
                    match r with
                    | Error e -> k (Error e)
                    | Ok host ->
                        let fallbacks =
                          List.filter
                            (fun h -> not (Loid.equal h host))
                            (live_hosts ())
                        in
                        try_host host ~fallbacks)))
  in

  (* Coalesce concurrent reactivations of one object: the first request
     leads, the rest join and share its outcome. Racing leaders would
     each bump the epoch while only one spawn wins — every call to the
     survivor then fences against the higher epoch, and rebinding never
     repairs it because resolution keeps finding the same placement. *)
  let do_activate ~env:call_env loid record ~host_hint ~sched k =
    match record.activating with
    | Some waiters -> record.activating <- Some (k :: waiters)
    | None ->
        record.activating <- Some [];
        do_activate_leader ~env:call_env loid record ~host_hint ~sched (fun r ->
            let waiters = Option.value ~default:[] record.activating in
            record.activating <- None;
            List.iter (fun w -> w r) (List.rev (k :: waiters)))
  in

  let activate _ctx args call_env k =
    match args with
    | [ loid_v; hints ] -> (
        let decoded =
          let* loid = C.loid_arg loid_v in
          let* stale = C.opt_address_field hints "stale" in
          let* host_hint = C.opt_loid_field hints "host" in
          let* sched = C.opt_loid_field hints "sched" in
          Ok (loid, stale, host_hint, sched)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (loid, stale, host_hint, sched) ->
            check_policy ~meth:"Activate" call_env k (fun () ->
                match find_record loid with
                | None -> k (Error (Err.Not_bound "object unknown to this magistrate"))
                | Some record ->
                    let serve () =
                      match record.active with
                      | Some (_, address)
                        when not
                               (match stale with
                               | Some s -> Address.equal s address
                               | None -> false) ->
                          k (Ok (Binding.to_value (mint_binding loid address)))
                      | Some (host, address) ->
                          (* The caller believes the recorded address is
                             dead — but its timeout may have been
                             transient. Ask the Host Object before
                             restarting: blind reactivation would fork the
                             object and roll its state back to the OPR. *)
                          let probe = (Runtime.config rt).Runtime.call_timeout /. 10.0 in
                          Runtime.invoke ctx ~timeout:probe ~dst:host ~meth:"IsAlive"
                            ~args:[ Loid.to_value loid ]
                            ~env:(Env.delegate call_env ~calling:self)
                            (fun r ->
                              match r with
                              | Ok (Value.Bool true) ->
                                  k (Ok (Binding.to_value (mint_binding loid address)))
                              | Ok _ | Error _ ->
                                  record.active <- None;
                                  do_activate ~env:call_env loid record ~host_hint
                                    ~sched k)
                      | None -> do_activate ~env:call_env loid record ~host_hint ~sched k
                    in
                    (match record.moving with
                    | None -> serve ()
                    | Some _ ->
                        (* The OPR is mid-transfer to another Magistrate.
                           Re-activating here would strand a live
                           placement under a Magistrate about to drop
                           the record — hold the request and, once the
                           transfer commits, forward it to the object's
                           new home (or serve locally if it aborts). *)
                        record.held <-
                          record.held
                          @ [
                              (function
                              | Some dst ->
                                  invoke_for call_env dst "Activate"
                                    [ loid_v; hints ] k
                              | None -> serve ());
                            ])))
    | _ -> Impl.bad_args k "Activate expects (loid, hints)"
  in

  let store_object _ctx args call_env k =
    match args with
    | [ loid_v; Value.Blob blob ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid ->
            check_policy ~meth:"StoreObject" call_env k (fun () ->
                match storage () with
                | Error e -> k (Error e)
                | Ok store ->
                    let opa = Persistent.put store ~loid blob in
                    (match find_record loid with
                    | Some record ->
                        (match record.opa with
                        | Some old when not (Opa.equal old opa) ->
                            Persistent.remove store old
                        | _ -> ());
                        record.opa <- Some opa
                    | None -> Loid.Lru.add st.records (fresh_record loid (Some opa)));
                    k Impl.ok_unit))
    | _ -> Impl.bad_args k "StoreObject expects (loid, opr: blob)"
  in

  (* Deactivate: host captures state, we persist the refreshed OPR and
     (best effort) tell the class the address is gone (§4.1.4's "news of
     an object's migration or removal"). Shared with Copy/Move. *)
  let do_deactivate ~env:call_env loid record k =
    match record.active with
    | None -> k (Ok ())
    | Some (host, _) ->
        invoke_for call_env host "Deactivate" [ Loid.to_value loid ] (fun r ->
            match r with
            | Error e -> k (Error e)
            | Ok (Value.Blob blob) -> (
                match storage () with
                | Error e -> k (Error e)
                | Ok store ->
                    let opa = Persistent.put store ~loid blob in
                    (match record.opa with
                    | Some old when not (Opa.equal old opa) ->
                        Persistent.remove store old
                    | _ -> ());
                    record.opa <- Some opa;
                    record.active <- None;
                    invoke (Loid.responsible_class loid) "NotifyAddress"
                      [ Loid.to_value loid; Value.List [] ]
                      (fun _ -> ());
                    k (Ok ()))
            | Ok _ -> k (Error (Err.Internal "Deactivate returned non-blob")))
  in

  let deactivate _ctx args call_env k =
    match args with
    | [ loid_v ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid ->
            check_policy ~meth:"Deactivate" call_env k (fun () ->
                match find_record loid with
                | None -> k (Error (Err.Not_bound "object unknown to this magistrate"))
                | Some record ->
                    do_deactivate ~env:call_env loid record (fun r ->
                        match r with Ok () -> k Impl.ok_unit | Error e -> k (Error e))))
    | _ -> Impl.bad_args k "Deactivate expects one loid"
  in

  let delete _ctx args call_env k =
    match args with
    | [ loid_v ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid ->
            check_policy ~meth:"Delete" call_env k (fun () ->
                match find_record loid with
                | None -> k (Error (Err.Not_bound "object unknown to this magistrate"))
                | Some record ->
                    let finish () =
                      (match (record.opa, storage ()) with
                      | Some opa, Ok store -> Persistent.remove store opa
                      | _ -> ());
                      Loid.Lru.remove st.records loid;
                      notify_class loid ~add:[] ~remove:[ self ] (fun () ->
                          k Impl.ok_unit)
                    in
                    (match record.active with
                    | Some (host, _) ->
                        invoke_for call_env host "Kill" [ Loid.to_value loid ]
                          (fun _ -> finish ())
                    | None -> finish ())))
    | _ -> Impl.bad_args k "Delete expects one loid"
  in

  (* Settle an in-flight transfer: release the [moving] marker and
     replay the Activate requests held meanwhile — toward the new home
     when the transfer committed ([Some dst]), locally when it aborted
     ([None]). *)
  let finish_transfer record outcome =
    let held = record.held in
    let movers = record.movers in
    record.held <- [];
    record.movers <- [];
    record.moving <- None;
    List.iter (fun resume -> resume outcome) held;
    let reply =
      match outcome with
      | Some _ -> Impl.ok_unit
      | None -> Error (Err.Refused "object transfer aborted")
    in
    List.iter (fun k -> k reply) movers
  in

  (* Copy (§3.8): deactivate, then ship the OPR to the other
     Magistrate. The object ends up Inert in both Jurisdictions, which
     is why the Current Magistrate List is a list. *)
  let do_copy ~env:call_env loid dst k =
    match find_record loid with
    | None -> k (Error (Err.Not_bound "object unknown to this magistrate"))
    | Some record ->
        do_deactivate ~env:call_env loid record (fun r ->
            match r with
            | Error e -> k (Error e)
            | Ok () -> (
                match (record.opa, storage ()) with
                | Some opa, Ok store -> (
                    match Persistent.get store opa with
                    | None -> k (Error (Err.Internal "persistent representation missing"))
                    | Some blob ->
                        invoke_for call_env dst "StoreObject"
                          [ Loid.to_value loid; Value.Blob blob ]
                          (fun r ->
                            match r with
                            | Error e -> k (Error e)
                            | Ok _ ->
                                st.migrations <- st.migrations + 1;
                                Runtime.emit rt
                                  ~host:(Runtime.proc_host ctx.Runtime.self)
                                  (Legion_obs.Event.Migrate { loid; dst });
                                notify_class loid ~add:[ dst ] ~remove:[]
                                  (fun () -> k (Ok ()))))
                | None, _ -> k (Error (Err.Not_bound "no persistent representation"))
                | _, Error e -> k (Error e)))
  in

  let copy _ctx args call_env k =
    match args with
    | [ loid_v; dst_v ] -> (
        let decoded =
          let* loid = C.loid_arg loid_v in
          let* dst = C.loid_arg dst_v in
          Ok (loid, dst)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (loid, dst) ->
            check_policy ~meth:"Copy" call_env k (fun () ->
                do_copy ~env:call_env loid dst (fun r ->
                    match r with Ok () -> k Impl.ok_unit | Error e -> k (Error e))))
    | _ -> Impl.bad_args k "Copy expects (loid, magistrate)"
  in

  (* Move = Copy then remove locally (§3.8: "equivalent to Copy() then
     Delete()", where the Delete is of the local copy only). *)
  let move _ctx args call_env k =
    match args with
    | [ loid_v; dst_v ] -> (
        let decoded =
          let* loid = C.loid_arg loid_v in
          let* dst = C.loid_arg dst_v in
          Ok (loid, dst)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (loid, dst) ->
            check_policy ~meth:"Move" call_env k (fun () ->
                match find_record loid with
                | None ->
                    k (Error (Err.Not_bound "object unknown to this magistrate"))
                | Some record when record.moving <> None ->
                    (* A duplicate delivery (same destination) joins the
                       transfer; a genuinely different transfer is
                       refused. *)
                    if
                      match record.moving with
                      | Some d -> Loid.equal d dst
                      | None -> false
                    then record.movers <- k :: record.movers
                    else
                      k
                        (Error
                           (Err.Refused "conflicting object transfer in flight"))
                | Some record ->
                    record.moving <- Some dst;
                    do_copy ~env:call_env loid dst (fun r ->
                        match r with
                        | Error e ->
                            finish_transfer record None;
                            k (Error e)
                        | Ok () ->
                            (match (record.opa, storage ()) with
                            | Some opa, Ok store -> Persistent.remove store opa
                            | _ -> ());
                            Loid.Lru.remove st.records loid;
                            finish_transfer record (Some dst);
                            notify_class loid ~add:[] ~remove:[ self ] (fun () ->
                                k Impl.ok_unit))))
    | _ -> Impl.bad_args k "Move expects (loid, magistrate)"
  in

  (* SweepIdle: "Magistrates are responsible for moving objects between
     Active and Inert states" (§3.1) — reclaim hosts by deactivating
     objects idle for at least the given number of virtual seconds. The
     Host Objects name the idle processes; we deactivate those we
     manage. Replies how many were deactivated. *)
  let sweep_idle _ctx args call_env k =
    match args with
    | [ Value.Float threshold ] ->
        check_policy ~meth:"SweepIdle" call_env k (fun () ->
            let active_hosts =
              List.sort_uniq Loid.compare
                (List.filter_map (fun r -> Option.map fst r.active) (records ()))
            in
            let swept = ref 0 in
            let rec per_host = function
              | [] -> k (Ok (Value.Int !swept))
              | h :: rest ->
                  invoke_for call_env h "IdleProcesses" [ Value.Float threshold ]
                    (fun r ->
                      match r with
                      | Error _ -> per_host rest
                      | Ok idle_v ->
                          let idle =
                            match C.loid_list_field
                                    (Value.Record [ ("l", idle_v) ]) "l"
                            with
                            | Ok ls -> ls
                            | Error _ -> []
                          in
                          let mine =
                            List.filter
                              (fun l ->
                                match find_record l with
                                | Some { active = Some (host, _); _ } ->
                                    Loid.equal host h
                                | _ -> false)
                              idle
                          in
                          let rec deact = function
                            | [] -> per_host rest
                            | l :: more -> (
                                match find_record l with
                                | Some record ->
                                    do_deactivate ~env:call_env l record (fun r ->
                                        (match r with
                                        | Ok () -> incr swept
                                        | Error _ -> ());
                                        deact more)
                                | None -> deact more)
                          in
                          deact mine)
            in
            per_host active_hosts)
    | _ -> Impl.bad_args k "SweepIdle expects one float"
  in

  (* Checkpoint one active object *in place*: capture SaveState over
     its recorded address without deactivating it, keep the stored
     OPR's identity fields (kind/units/agent/capacity) and replace only
     the state record, re-writing the same OPA. A crash then loses at
     most one checkpoint interval of state instead of everything since
     the last explicit Deactivate. Best effort: any failure leaves the
     previous OPR in place for the next sweep. *)
  let checkpoint_record loid record k =
    match (record.active, record.opa, storage ()) with
    | Some (_, address), Some opa, Ok store -> (
        match Option.map Opr.of_blob (Persistent.get store opa) with
        | None | Some (Error _) -> k false
        | Some (Ok opr) ->
            let budget = (Runtime.config rt).Runtime.call_timeout /. 4.0 in
            Runtime.invoke_address ctx ~timeout:budget ~address ~dst:loid
              ~meth:"SaveState" ~args:[] ~env (fun r ->
                match r with
                | Ok (Value.Record states) -> (
                    let blob = Opr.to_blob { opr with states } in
                    match Persistent.put_at store opa blob with
                    | Ok () ->
                        emit_ev (Event.Checkpoint { loid });
                        k true
                    | Error _ -> k false)
                | Ok _ | Error _ -> k false))
    | _ -> k false
  in
  let checkpoint_all k =
    let snapshot = records () in
    let count = ref 0 in
    let rec go = function
      | [] -> k !count
      | record :: rest ->
          checkpoint_record record.loid record (fun ok ->
              if ok then incr count;
              go rest)
    in
    go snapshot
  in
  let sweep_checkpoint _ctx args call_env k =
    match args with
    | [] ->
        check_policy ~meth:"SweepCheckpoint" call_env k (fun () ->
            checkpoint_all (fun n -> k (Ok (Value.Int n))))
    | _ -> Impl.bad_args k "SweepCheckpoint takes no arguments"
  in
  (* StartCheckpointing: arm a periodic SweepCheckpoint until the given
     absolute virtual time. The horizon is explicit so a simulation
     that runs to quiescence still terminates. *)
  let start_checkpointing _ctx args call_env k =
    match args with
    | [ Value.Float period; Value.Float until ] ->
        check_policy ~meth:"StartCheckpointing" call_env k (fun () ->
            if period <= 0.0 then
              Impl.bad_args k "StartCheckpointing: period must be positive"
            else begin
              let sim = Runtime.sim rt in
              let rec sweep () =
                if Runtime.is_live ctx.Runtime.self then
                  checkpoint_all (fun _ ->
                      if Engine.now sim +. period <= until then
                        ignore (Engine.schedule sim ~delay:period sweep))
              in
              ignore (Engine.schedule sim ~delay:period sweep);
              k Impl.ok_unit
            end)
    | _ -> Impl.bad_args k "StartCheckpointing expects (period, until)"
  in

  (* Failure detection (heartbeats): probe every Host Object each
     period; consecutive misses move it Suspect -> ConfirmDead at the
     threshold, at which point every resident object is recovered
     proactively — its record is cleared, the MTTR clock started, and
     its responsible class told to reactivate it (NotifyDead) on a
     surviving host. No caller has to trip over the corpse first. A
     later successful probe revives the host for placement. *)
  let missed_of h =
    match List.find_opt (fun (l, _) -> Loid.equal l h) st.missed with
    | Some (_, n) -> n
    | None -> 0
  in
  let set_missed h n =
    st.missed <-
      (h, n) :: List.filter (fun (l, _) -> not (Loid.equal l h)) st.missed
  in
  let confirm_dead h =
    if not (is_dead h) then begin
      st.dead_hosts <- h :: st.dead_hosts;
      let victims =
        List.filter
          (fun r ->
            match r.active with
            | Some (hh, _) -> Loid.equal hh h
            | None -> false)
          (records ())
      in
      emit_ev
        (Event.Confirm_dead { host_obj = h; objects = List.length victims });
      List.iter
        (fun ({ loid; _ } as record) ->
          record.active <- None;
          Runtime.mark_dead rt loid;
          (* Classes recover lazily through the agent chain; only
             instances get the proactive push. *)
          if not (Loid.is_class loid) then
            invoke (Loid.responsible_class loid) "NotifyDead"
              [ Loid.to_value loid ]
              (fun _ -> ()))
        victims
    end
  in
  let probe_host ~threshold h k =
    let probe = (Runtime.config rt).Runtime.call_timeout /. 10.0 in
    Runtime.invoke ctx ~timeout:probe ~max_rebinds:0 ~dst:h ~meth:"GetState"
      ~args:[] ~env (fun r ->
        (match r with
        | Ok _ ->
            if is_dead h then
              st.dead_hosts <-
                List.filter (fun l -> not (Loid.equal l h)) st.dead_hosts;
            set_missed h 0
        | Error _ ->
            let n = missed_of h + 1 in
            set_missed h n;
            emit_ev (Event.Suspect { host_obj = h; missed = n });
            if n >= threshold then confirm_dead h);
        k ())
  in
  let start_heartbeat _ctx args call_env k =
    match args with
    | [ Value.Float period; Value.Int threshold; Value.Float until ] ->
        check_policy ~meth:"StartHeartbeat" call_env k (fun () ->
            if period <= 0.0 || threshold < 1 then
              Impl.bad_args k "StartHeartbeat: bad period/threshold"
            else begin
              let sim = Runtime.sim rt in
              let rec beat () =
                if Runtime.is_live ctx.Runtime.self then begin
                  let rec per_host = function
                    | [] ->
                        if Engine.now sim +. period <= until then
                          ignore (Engine.schedule sim ~delay:period beat)
                    | h :: rest -> probe_host ~threshold h (fun () -> per_host rest)
                  in
                  per_host st.hosts
                end
              in
              ignore (Engine.schedule sim ~delay:period beat);
              k Impl.ok_unit
            end)
    | _ -> Impl.bad_args k "StartHeartbeat expects (period, threshold, until)"
  in

  (* AdoptObject: accept responsibility for an object whose OPR already
     sits on storage this Jurisdiction can see — the §2.2 non-disjoint
     storage case, used by jurisdiction splitting. *)
  let adopt_object _ctx args call_env k =
    match args with
    | [ loid_v; opa_v ] -> (
        let decoded =
          let* loid = C.loid_arg loid_v in
          let* opa = Opa.of_value opa_v in
          Ok (loid, opa)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (loid, opa) ->
            check_policy ~meth:"AdoptObject" call_env k (fun () ->
                match storage () with
                | Error e -> k (Error e)
                | Ok store ->
                    if Persistent.get store opa = None then
                      k
                        (Error
                           (Err.Refused
                              "persistent representation not visible from this \
                               jurisdiction"))
                    else begin
                      (match find_record loid with
                      | Some record -> record.opa <- Some opa
                      | None -> Loid.Lru.add st.records (fresh_record loid (Some opa)));
                      k Impl.ok_unit
                    end))
    | _ -> Impl.bad_args k "AdoptObject expects (loid, opa)"
  in

  (* TransferObjects: §2.2 jurisdiction splitting — hand up to [max]
     managed objects to another Magistrate. Active objects are
     deactivated first; the class is told synchronously per object. *)
  let transfer_objects _ctx args call_env k =
    match args with
    | [ dst_v; Value.Int max_n ] -> (
        match C.loid_arg dst_v with
        | Error msg -> Impl.bad_args k msg
        | Ok dst ->
            check_policy ~meth:"TransferObjects" call_env k (fun () ->
                (* Class objects stay put: they are located through
                   LegionClass pairs, not a Current Magistrate List, so
                   nobody can be told about the new home — transferring
                   one would strand it (every later activation still
                   asks this Magistrate). *)
                let candidates =
                  List.filteri
                    (fun i _ -> i < max_n)
                    (List.filter (fun r -> not (Loid.is_class r.loid)) (records ()))
                in
                let moved = ref 0 in
                let rec transfer = function
                  | [] -> k (Ok (Value.Int !moved))
                  | record :: rest when record.moving <> None -> transfer rest
                  | ({ loid; _ } as record) :: rest ->
                      record.moving <- Some dst;
                      do_deactivate ~env:call_env loid record (fun r ->
                          match r with
                          | Error _ ->
                              finish_transfer record None;
                              transfer rest
                          | Ok () -> (
                              match record.opa with
                              | None ->
                                  finish_transfer record None;
                                  transfer rest
                              | Some opa ->
                                  invoke_for call_env dst "AdoptObject"
                                    [ Loid.to_value loid; Opa.to_value opa ]
                                    (fun r ->
                                      match r with
                                      | Error _ ->
                                          finish_transfer record None;
                                          transfer rest
                                      | Ok _ ->
                                          Loid.Lru.remove st.records loid;
                                          incr moved;
                                          finish_transfer record (Some dst);
                                          notify_class loid ~add:[ dst ]
                                            ~remove:[ self ] (fun () ->
                                              transfer rest))))
                in
                transfer candidates))
    | _ -> Impl.bad_args k "TransferObjects expects (magistrate, max: int)"
  in

  let add_host _ctx args _env k =
    match args with
    | [ host_v ] -> (
        match C.loid_arg host_v with
        | Error msg -> Impl.bad_args k msg
        | Ok host ->
            if not (List.exists (Loid.equal host) st.hosts) then
              st.hosts <- st.hosts @ [ host ];
            k Impl.ok_unit)
    | _ -> Impl.bad_args k "AddHost expects one host loid"
  in

  let remove_host _ctx args _env k =
    match args with
    | [ host_v ] -> (
        match C.loid_arg host_v with
        | Error msg -> Impl.bad_args k msg
        | Ok host ->
            st.hosts <- List.filter (fun h -> not (Loid.equal h host)) st.hosts;
            k Impl.ok_unit)
    | _ -> Impl.bad_args k "RemoveHost expects one host loid"
  in

  let set_activation_policy _ctx args _env k =
    match args with
    | [ pv ] -> (
        match Policy.of_value pv with
        | Ok p ->
            st.activation_policy <- p;
            k Impl.ok_unit
        | Error msg -> Impl.bad_args k msg)
    | _ -> Impl.bad_args k "SetActivationPolicy expects one policy"
  in

  let list_objects _ctx args _env k =
    match args with
    | [] -> k (Ok (C.vloids (List.map (fun r -> r.loid) (records ()))))
    | _ -> Impl.bad_args k "ListObjects takes no arguments"
  in

  let info _ctx args _env k =
    match args with
    | [] ->
        let n_active =
          List.length (List.filter (fun r -> Option.is_some r.active) (records ()))
        in
        k
          (Ok
             (Value.Record
                [
                  ("jurisdiction", Value.Str st.jurisdiction);
                  ("hosts", C.vloids st.hosts);
                  ("objects", Value.Int (Loid.Lru.length st.records));
                  ("active", Value.Int n_active);
                  ("activations", Value.Int st.activations);
                  ("migrations", Value.Int st.migrations);
                ]))
    | _ -> Impl.bad_args k "GetJurisdictionInfo takes no arguments"
  in

  let save () =
    Value.Record
      [
        ("jur", Value.Str st.jurisdiction);
        ("hosts", C.vloids st.hosts);
        ("policy", Policy.to_value st.activation_policy);
        ("records", Value.List (List.map record_to_value (records ())));
      ]
  in
  let restore v =
    let* jur = C.str_field v "jur" in
    let* hosts = C.loid_list_field v "hosts" in
    let* pv = C.field v "policy" in
    let* policy = Policy.of_value pv in
    let* records_v = C.field v "records" in
    let* records =
      match records_v with
      | Value.List rs ->
          let rec loop acc = function
            | [] -> Ok (List.rev acc)
            | rv :: rest ->
                let* r = record_of_value rv in
                loop (r :: acc) rest
          in
          loop [] rs
      | _ -> Error "magistrate state: records not a list"
    in
    st.jurisdiction <- jur;
    st.hosts <- hosts;
    st.activation_policy <- policy;
    Loid.Lru.clear st.records;
    List.iter (Loid.Lru.add st.records) (List.rev records);
    Ok ()
  in
  Impl.part
    ~methods:
      [
        ("Activate", activate);
        ("StoreObject", store_object);
        ("Deactivate", deactivate);
        ("Delete", delete);
        ("Copy", copy);
        ("Move", move);
        ("SweepIdle", sweep_idle);
        ("SweepCheckpoint", sweep_checkpoint);
        ("StartCheckpointing", start_checkpointing);
        ("StartHeartbeat", start_heartbeat);
        ("AdoptObject", adopt_object);
        ("TransferObjects", transfer_objects);
        ("AddHost", add_host);
        ("RemoveHost", remove_host);
        ("SetActivationPolicy", set_activation_policy);
        ("ListObjects", list_objects);
        ("GetJurisdictionInfo", info);
      ]
    ~save ~restore unit_name

let register () = Impl.register unit_name factory
