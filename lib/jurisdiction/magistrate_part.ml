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

(* The one operation a record may have in flight: an activation, or a
   transfer (Move, TransferObjects) to the destination Magistrate. *)
type op = Activation | Transfer of Loid.t

type busy = {
  op : op;
  mutable joined : (Runtime.reply -> unit) list;
      (* repeats of [op], newest first: they share its outcome *)
  mutable waiting : (unit -> unit) list;
      (* other requests on the record, newest first: each is replayed
         whole once [op] settles *)
}

type record = {
  loid : Loid.t;
  mutable opa : Opa.t option;
  mutable active : (Loid.t * Address.t) option;  (* (host object, address) *)
  (* The operation in flight. A repeat joins it: at-least-once delivery
     hands us the same Move twice, and two racing reactivations would
     each bump the epoch while only one spawn wins, leaving a placement
     fenced on every call. Anything else waits: an Activate answered
     mid-transfer, or a Move run mid-activation, strands a live
     placement under a Magistrate that no longer manages it, and a
     Delete run mid-activation leaves the deleted object running. Soft
     state, never persisted (a restored Magistrate has nothing in
     flight). *)
  mutable busy : busy option;
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
  host_load : int Loid.Table.t;  (* local activation counts *)
  mutable activations : int;
  mutable migrations : int;
  (* Failure-detector soft state, re-derived by heartbeats after a
     restore and so deliberately not persisted: consecutive missed beats
     per host. A host is dead while its count is at or past the
     heartbeat threshold. *)
  missed : int Loid.Table.t;
  mutable threshold : int;
}

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

let encode_state ~jurisdiction ~hosts ~policy records =
  Value.Record
    [
      ("jur", Value.Str jurisdiction);
      ("hosts", C.vloids hosts);
      ("policy", Policy.to_value policy);
      ("records", Value.List (List.map record_to_value records));
    ]

let state_value ?(hosts = []) ?(activation_policy = Policy.Allow_all)
    ~jurisdiction () =
  encode_state ~jurisdiction ~hosts ~policy:activation_policy []

let fresh_record loid opa = { loid; opa; active = None; busy = None }

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
      missed = Loid.Table.create ();
      threshold = max_int;
    }
  in
  let env = Env.of_self self in
  let invoke dst meth args k = Runtime.invoke ctx ~dst ~meth ~args ~env k in
  let invoke_for call_env dst meth args k =
    Runtime.invoke ctx ~dst ~meth ~args
      ~env:(Env.delegate call_env ~calling:self) k
  in
  (* The deadline of a single-attempt probe of a Host Object. *)
  let probe_timeout = (Runtime.config rt).Runtime.call_timeout /. 10.0 in

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
  let missed_of h = Option.value ~default:0 (Loid.Table.find st.missed h) in
  (* Hosts the failure detector has confirmed dead are skipped by
     placement decisions until a heartbeat reaches them again. *)
  let live_hosts () = List.filter (fun h -> missed_of h < st.threshold) st.hosts in
  let emit_ev kind =
    Runtime.emit rt ~host:(Runtime.proc_host ctx.Runtime.self) kind
  in
  (* Run [f] on each element in turn, each once the previous one has
     called back, then [k]. *)
  let rec each f xs k =
    match xs with
    | [] -> k ()
    | x :: rest -> f x (fun () -> each f rest k)
  in
  (* Run [round] every [period] virtual seconds while this Magistrate
     lives, each round once the previous one has called back, until the
     absolute horizon [until]. The horizon is explicit so a simulation
     that runs to quiescence still terminates. *)
  let every ~period ~until round =
    let sim = Runtime.sim rt in
    let rec tick () =
      if Runtime.is_live ctx.Runtime.self then
        round (fun () ->
            if Engine.now sim +. period <= until then
              ignore (Engine.schedule sim ~delay:period tick))
    in
    ignore (Engine.schedule sim ~delay:period tick)
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
  let pick_host ~host_hint ~sched k =
    match (host_hint, live_hosts ()) with
    | Some h, _ -> k (Ok h)
    | None, [] -> k (Error (Err.Refused "jurisdiction has no hosts"))
    | None, (first :: rest as hosts) -> (
        match sched with
        | Some agent ->
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
            (* The first of the least-loaded hosts. *)
            let best, _ =
              List.fold_left
                (fun (b, l) h -> if load_of h < l then (h, load_of h) else (b, l))
                (first, load_of first) rest
            in
            k (Ok best))
  in

  let unknown k = k (Error (Err.Not_bound "object unknown to this magistrate")) in
  (* Persist [blob] as [record]'s OPR and drop the version it
     supersedes. *)
  let persist store record blob =
    let opa = Persistent.put store ~loid:record.loid blob in
    (match record.opa with
    | Some old when not (Opa.equal old opa) -> Persistent.remove store old
    | _ -> ());
    record.opa <- Some opa
  in
  (* Forget [record] and its OPR. *)
  let discard record =
    (match (record.opa, storage ()) with
    | Some opa, Ok store -> Persistent.remove store opa
    | _ -> ());
    Loid.Lru.remove st.records record.loid
  in
  (* Decode a request on one object, check it against the activation
     policy and run [f] on the object's record. [f] also gets [retry],
     which replays the lookup: a request that meets a busy record waits
     by handing [retry] to the operation in flight. *)
  let on_record ~meth call_env k decoded f =
    match decoded with
    | Error msg -> Impl.bad_args k msg
    | Ok (loid, req) ->
        check_policy ~meth call_env k (fun () ->
            let rec retry () =
              match find_record loid with
              | None -> unknown k
              | Some record -> f req record retry
            in
            retry ())
  in
  let one_loid v = Result.map (fun loid -> (loid, ())) (C.loid_arg v) in
  (* Run [f] on an idle [record]; on a busy one, wait and [retry]. *)
  let when_idle record retry f =
    match record.busy with
    | None -> f ()
    | Some b -> b.waiting <- retry :: b.waiting
  in
  let start record op = record.busy <- Some { op; joined = []; waiting = [] } in
  (* Settle [record]'s operation with [outcome]: replay the requests
     that waited on it, then answer the repeats that joined it, each in
     arrival order. The operation's own caller is answered after. *)
  let settle record outcome =
    match record.busy with
    | None -> ()
    | Some b ->
        record.busy <- None;
        List.iter (fun retry -> retry ()) (List.rev b.waiting);
        List.iter (fun k -> k outcome) (List.rev b.joined)
  in

  (* Lead an activation of [record]; Activates that arrive meanwhile
     join it and share its reply. *)
  let lead_activation ~env:call_env record ~host_hint ~sched k =
    let loid = record.loid in
    start record Activation;
    let k r =
      settle record r;
      k r
    in
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
                let rec attempt host fallbacks =
                  Runtime.invoke ctx ~timeout:probe_timeout ~dst:host ~meth:"Activate"
                    ~args:[ Loid.to_value loid; Value.Blob blob ]
                    ~env:(Env.delegate call_env ~calling:self)
                    (fun r ->
                      (* Fall over on delivery failures (dead host) and
                         on refusals (a Host Object at capacity or
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
                pick_host ~host_hint ~sched (fun r ->
                    match r with
                    | Error e -> k (Error e)
                    | Ok host ->
                        attempt host
                          (List.filter
                             (fun h -> not (Loid.equal h host))
                             (live_hosts ())))))
  in

  let activate _ctx args call_env k =
    match args with
    | [ loid_v; hints ] ->
        let decoded =
          let* loid = C.loid_arg loid_v in
          let* stale = C.opt_address_field hints "stale" in
          let* host_hint = C.opt_loid_field hints "host" in
          let* sched = C.opt_loid_field hints "sched" in
          Ok (loid, (stale, host_hint, sched))
        in
        on_record ~meth:"Activate" call_env k decoded
          (fun (stale, host_hint, sched) record retry ->
            let loid = record.loid in
            let answer address =
              k (Ok (Binding.to_value (mint_binding loid address)))
            in
            match record.busy with
            | Some ({ op = Activation; _ } as b) -> b.joined <- k :: b.joined
            | Some ({ op = Transfer dst; _ } as b) ->
                (* Forward to the object's new home once the transfer
                   commits; replay here if it aborts. *)
                b.waiting <-
                  (fun () ->
                    if Option.is_none (find_record loid) then
                      invoke_for call_env dst "Activate" [ loid_v; hints ] k
                    else retry ())
                  :: b.waiting
            | None -> (
                match record.active with
                | Some (_, address)
                  when not
                         (match stale with
                         | Some s -> Address.equal s address
                         | None -> false) ->
                    answer address
                | Some (host, address) ->
                    (* The caller believes the recorded address is dead —
                       but its timeout may have been transient. Ask the
                       Host Object before restarting: blind reactivation
                       would fork the object and roll its state back to
                       the OPR. *)
                    Runtime.invoke ctx ~timeout:probe_timeout ~dst:host ~meth:"IsAlive"
                      ~args:[ Loid.to_value loid ]
                      ~env:(Env.delegate call_env ~calling:self)
                      (fun r ->
                        match (r, find_record loid) with
                        | Ok (Value.Bool true), _ -> answer address
                        | _, Some current
                          when current == record && Option.is_none record.busy ->
                            record.active <- None;
                            lead_activation ~env:call_env record ~host_hint ~sched k
                        | _ -> retry ())
                | None -> lead_activation ~env:call_env record ~host_hint ~sched k))
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
                    let record =
                      match find_record loid with
                      | Some record -> record
                      | None ->
                          let record = fresh_record loid None in
                          Loid.Lru.add st.records record;
                          record
                    in
                    persist store record blob;
                    k Impl.ok_unit))
    | _ -> Impl.bad_args k "StoreObject expects (loid, opr: blob)"
  in

  (* Deactivate: host captures state, we persist the refreshed OPR and
     (best effort) tell the class the address is gone (§4.1.4's "news of
     an object's migration or removal"). Shared with Copy/Move. *)
  let do_deactivate ~env:call_env record k =
    match record.active with
    | None -> k Impl.ok_unit
    | Some (host, _) ->
        invoke_for call_env host "Deactivate" [ Loid.to_value record.loid ] (fun r ->
            match r with
            | Error e -> k (Error e)
            | Ok (Value.Blob blob) -> (
                match storage () with
                | Error e -> k (Error e)
                | Ok store ->
                    persist store record blob;
                    record.active <- None;
                    invoke (Loid.responsible_class record.loid) "NotifyAddress"
                      [ Loid.to_value record.loid; Value.List [] ]
                      (fun _ -> ());
                    k Impl.ok_unit)
            | Ok _ -> k (Error (Err.Internal "Deactivate returned non-blob")))
  in

  let deactivate _ctx args call_env k =
    match args with
    | [ loid_v ] ->
        on_record ~meth:"Deactivate" call_env k (one_loid loid_v)
          (fun () record retry ->
            when_idle record retry (fun () ->
                do_deactivate ~env:call_env record k))
    | _ -> Impl.bad_args k "Deactivate expects one loid"
  in

  let delete _ctx args call_env k =
    match args with
    | [ loid_v ] ->
        on_record ~meth:"Delete" call_env k (one_loid loid_v)
          (fun () record retry ->
            when_idle record retry (fun () ->
                let finish () =
                  discard record;
                  notify_class record.loid ~add:[] ~remove:[ self ] (fun () ->
                      k Impl.ok_unit)
                in
                match record.active with
                | Some (host, _) ->
                    invoke_for call_env host "Kill" [ Loid.to_value record.loid ]
                      (fun _ -> finish ())
                | None -> finish ()))
    | _ -> Impl.bad_args k "Delete expects one loid"
  in

  (* Copy (§3.8): deactivate, then ship the OPR to the other
     Magistrate. The object ends up Inert in both Jurisdictions, which
     is why the Current Magistrate List is a list. *)
  let copy_to ~env:call_env record dst k =
    let loid = record.loid in
    do_deactivate ~env:call_env record (fun r ->
        match r with
        | Error e -> k (Error e)
        | Ok _ -> (
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
                            emit_ev (Event.Migrate { loid; dst });
                            notify_class loid ~add:[ dst ] ~remove:[] (fun () ->
                                k Impl.ok_unit)))
            | None, _ -> k (Error (Err.Not_bound "no persistent representation"))
            | _, Error e -> k (Error e)))
  in
  let decode_transfer loid_v dst_v =
    let* loid = C.loid_arg loid_v in
    let* dst = C.loid_arg dst_v in
    Ok (loid, dst)
  in

  let copy _ctx args call_env k =
    match args with
    | [ loid_v; dst_v ] ->
        on_record ~meth:"Copy" call_env k (decode_transfer loid_v dst_v)
          (fun dst record retry ->
            when_idle record retry (fun () -> copy_to ~env:call_env record dst k))
    | _ -> Impl.bad_args k "Copy expects (loid, magistrate)"
  in

  (* Move = Copy then remove locally (§3.8: "equivalent to Copy() then
     Delete()", where the Delete is of the local copy only). *)
  let move _ctx args call_env k =
    match args with
    | [ loid_v; dst_v ] ->
        on_record ~meth:"Move" call_env k (decode_transfer loid_v dst_v)
          (fun dst record retry ->
            match record.busy with
            | Some ({ op = Transfer d; _ } as b) when Loid.equal d dst ->
                b.joined <- k :: b.joined
            | Some b -> b.waiting <- retry :: b.waiting
            | None ->
                start record (Transfer dst);
                copy_to ~env:call_env record dst (fun r ->
                    match r with
                    | Error _ ->
                        settle record r;
                        k r
                    | Ok _ ->
                        discard record;
                        settle record r;
                        notify_class record.loid ~add:[] ~remove:[ self ] (fun () ->
                            k r)))
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
            each
              (fun h next ->
                invoke_for call_env h "IdleProcesses" [ Value.Float threshold ]
                  (fun r ->
                    let idle =
                      match r with
                      | Ok v -> Result.value ~default:[] (C.loid_list v)
                      | Error _ -> []
                    in
                    let mine =
                      List.filter
                        (fun l ->
                          match find_record l with
                          | Some { active = Some (host, _); _ } -> Loid.equal host h
                          | _ -> false)
                        idle
                    in
                    each
                      (fun l next ->
                        match find_record l with
                        | Some ({ busy = None; _ } as record) ->
                            do_deactivate ~env:call_env record (fun r ->
                                if Result.is_ok r then incr swept;
                                next ())
                        | _ -> next ())
                      mine next))
              active_hosts
              (fun () -> k (Ok (Value.Int !swept))))
    | _ -> Impl.bad_args k "SweepIdle expects one float"
  in

  (* Checkpoint one active object *in place*: capture SaveState over
     its recorded address without deactivating it, keep the stored
     OPR's identity fields (kind/units/agent/capacity) and replace only
     the state record, re-writing the same OPA. A crash then loses at
     most one checkpoint interval of state instead of everything since
     the last explicit Deactivate. Best effort: any failure leaves the
     previous OPR in place for the next sweep. *)
  let checkpoint_record record k =
    match (record.busy, record.active, record.opa, storage ()) with
    | None, Some (_, address), Some opa, Ok store -> (
        match Option.map Opr.of_blob (Persistent.get store opa) with
        | None | Some (Error _) -> k false
        | Some (Ok opr) ->
            let budget = (Runtime.config rt).Runtime.call_timeout /. 4.0 in
            Runtime.invoke_address ctx ~timeout:budget ~address ~dst:record.loid
              ~meth:"SaveState" ~args:[] ~env (fun r ->
                match r with
                | Ok (Value.Record states) -> (
                    let blob = Opr.to_blob { opr with states } in
                    match Persistent.put_at store opa blob with
                    | Ok () ->
                        emit_ev (Event.Checkpoint { loid = record.loid });
                        k true
                    | Error _ -> k false)
                | Ok _ | Error _ -> k false))
    | _ -> k false
  in
  let checkpoint_all k =
    let count = ref 0 in
    each
      (fun record next ->
        checkpoint_record record (fun ok ->
            if ok then incr count;
            next ()))
      (records ())
      (fun () -> k !count)
  in
  let sweep_checkpoint _ctx args call_env k =
    match args with
    | [] ->
        check_policy ~meth:"SweepCheckpoint" call_env k (fun () ->
            checkpoint_all (fun n -> k (Ok (Value.Int n))))
    | _ -> Impl.bad_args k "SweepCheckpoint takes no arguments"
  in
  (* StartCheckpointing: arm a periodic SweepCheckpoint until the given
     absolute virtual time. *)
  let start_checkpointing _ctx args call_env k =
    match args with
    | [ Value.Float period; Value.Float until ] ->
        check_policy ~meth:"StartCheckpointing" call_env k (fun () ->
            if period <= 0.0 then
              Impl.bad_args k "StartCheckpointing: period must be positive"
            else begin
              every ~period ~until (fun next -> checkpoint_all (fun _ -> next ()));
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
  let confirm_dead h =
    let victims =
      List.filter
        (fun r ->
          match r.active with
          | Some (hh, _) -> Loid.equal hh h
          | None -> false)
        (records ())
    in
    emit_ev (Event.Confirm_dead { host_obj = h; objects = List.length victims });
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
  in
  let probe_host h k =
    Runtime.invoke ctx ~timeout:probe_timeout ~max_rebinds:0 ~dst:h ~meth:"GetState"
      ~args:[] ~env (fun r ->
        (match r with
        | Ok _ -> Loid.Table.remove st.missed h
        | Error _ ->
            let n = missed_of h + 1 in
            Loid.Table.set st.missed h n;
            emit_ev (Event.Suspect { host_obj = h; missed = n });
            (* The miss that reaches the threshold confirms the death. *)
            if n = st.threshold then confirm_dead h);
        k ())
  in
  let start_heartbeat _ctx args call_env k =
    match args with
    | [ Value.Float period; Value.Int threshold; Value.Float until ] ->
        check_policy ~meth:"StartHeartbeat" call_env k (fun () ->
            if period <= 0.0 || threshold < 1 then
              Impl.bad_args k "StartHeartbeat: bad period/threshold"
            else begin
              st.threshold <- threshold;
              every ~period ~until (fun next -> each probe_host st.hosts next);
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
                each
                  (fun ({ loid; _ } as record) next ->
                    if Option.is_some record.busy then next ()
                    else begin
                      start record (Transfer dst);
                      let abort e =
                        settle record (Error e);
                        next ()
                      in
                      do_deactivate ~env:call_env record (fun r ->
                          match (r, record.opa) with
                          | Error e, _ -> abort e
                          | Ok _, None ->
                              abort (Err.Not_bound "no persistent representation")
                          | Ok _, Some opa ->
                              invoke_for call_env dst "AdoptObject"
                                [ Loid.to_value loid; Opa.to_value opa ]
                                (fun r ->
                                  match r with
                                  | Error e -> abort e
                                  | Ok _ ->
                                      Loid.Lru.remove st.records loid;
                                      incr moved;
                                      settle record Impl.ok_unit;
                                      notify_class loid ~add:[ dst ] ~remove:[ self ]
                                        next))
                    end)
                  candidates
                  (fun () -> k (Ok (Value.Int !moved)))))
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
    encode_state ~jurisdiction:st.jurisdiction ~hosts:st.hosts
      ~policy:st.activation_policy (records ())
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
