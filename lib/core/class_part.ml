module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Interface = Legion_idl.Interface
module Parser = Legion_idl.Parser
module Env = Legion_sec.Env
module Policy = Legion_sec.Policy
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module C = Convert

let unit_name = Well_known.unit_class

type flags = { abstract : bool; private_ : bool; fixed : bool }

let default_flags = { abstract = false; private_ = false; fixed = false }

type row = {
  loid : Loid.t;
  mutable address : Address.t option;
  mutable magistrates : Loid.t list;  (* Current Magistrate List *)
  mutable sched : Loid.t option;  (* Scheduling Agent *)
  mutable candidates : Loid.t list;  (* Candidate Magistrate List *)
  mutable is_subclass : bool;
}

type state = {
  mutable class_id : int64;
  mutable next_spec : int64;
  mutable interface : Interface.t;
  mutable instance_units : string list;
  mutable instance_kind : string;
  mutable instance_cache_capacity : int option;
  mutable superclass : Loid.t option;
  mutable bases : Loid.t list;
  mutable flags : flags;
  mutable default_magistrates : Loid.t list;
  mutable default_scheduler : Loid.t option;
  mutable rr : int;  (* round-robin cursor over default magistrates *)
  mutable clones : Loid.t list;
      (* §5.2.2 autonomic cloning: while non-empty, new Create requests
         are "passed to the cloned object" — answered with a redirect
         into this ring instead of served here *)
  mutable clone_rr : int;  (* round-robin cursor over clones *)
  mutable binding_policy : Policy.t;
      (* §2.4 enforced on the binding path: judges every Create and
         GetBinding before it is served, so an uncleared principal never
         receives a binding from this class *)
  table : row Loid.Lru.t;
      (* Fig. 16, newest first. Rows are only [peek]ed, and a LOID is
         added once (RegisterInstance updates its row in place), so the
         order is insertion order. *)
}

(* ------------------------------------------------------------------ *)
(* State (de)serialization — class objects migrate and deactivate like
   any other object, so the whole logical table must round-trip.       *)

let row_to_value r =
  Value.Record
    [
      ("loid", Loid.to_value r.loid);
      ("addr", C.vopt Address.to_value r.address);
      ("mags", C.vloids r.magistrates);
      ("sched", C.vopt Loid.to_value r.sched);
      ("cands", C.vloids r.candidates);
      ("sub", Value.Bool r.is_subclass);
    ]

let ( let* ) r f = Result.bind r f

let row_of_value v =
  let* loid = C.loid_field v "loid" in
  let* address = C.opt_address_field v "addr" in
  let* magistrates = C.loid_list_field v "mags" in
  let* sched = C.opt_loid_field v "sched" in
  let* candidates = C.loid_list_field v "cands" in
  let* is_subclass = C.bool_field v "sub" in
  Ok { loid; address; magistrates; sched; candidates; is_subclass }

let state_to_value st =
  Value.Record
    [
      ("cid", Value.I64 st.class_id);
      ("next", Value.I64 st.next_spec);
      ("iface", Interface.to_value st.interface);
      ("units", C.vstrs st.instance_units);
      ("kind", Value.Str st.instance_kind);
      ("cap", C.vopt Value.of_int st.instance_cache_capacity);
      ("super", C.vopt Loid.to_value st.superclass);
      ("bases", C.vloids st.bases);
      ("abs", Value.Bool st.flags.abstract);
      ("priv", Value.Bool st.flags.private_);
      ("fix", Value.Bool st.flags.fixed);
      ("dmags", C.vloids st.default_magistrates);
      ("dsched", C.vopt Loid.to_value st.default_scheduler);
      ("rr", Value.Int st.rr);
      ("clones", C.vloids st.clones);
      ("crr", Value.Int st.clone_rr);
      ("bpol", Policy.to_value st.binding_policy);
      ( "table",
        Value.List
          (Loid.Lru.fold (fun r acc -> row_to_value r :: acc) st.table []) );
    ]

let state_of_value st v =
  let* class_id = C.i64_field v "cid" in
  let* next_spec = C.i64_field v "next" in
  let* iface_v = C.field v "iface" in
  let* interface = Interface.of_value iface_v in
  let* instance_units = C.str_list_field v "units" in
  let* instance_kind = C.str_field v "kind" in
  let* cap = C.opt_int_field v "cap" in
  let* superclass = C.opt_loid_field v "super" in
  let* bases = C.loid_list_field v "bases" in
  let* abstract = C.bool_field v "abs" in
  let* private_ = C.bool_field v "priv" in
  let* fixed = C.bool_field v "fix" in
  let* dmags = C.loid_list_field v "dmags" in
  let* dsched = C.opt_loid_field v "dsched" in
  let* rr = C.int_field v "rr" in
  (* Absent in states serialized before autonomic cloning existed. *)
  let* clones = C.loid_list_field ~default:[] v "clones" in
  let clone_rr = match C.int_field v "crr" with Ok n -> n | Error _ -> 0 in
  (* Absent in states serialized before binding-path enforcement: those
     classes answered everyone, so the legacy default is Allow_all. *)
  let* binding_policy =
    match C.field v "bpol" with
    | Error _ -> Ok Policy.Allow_all
    | Ok pv -> Policy.of_value pv
  in
  let* table_v = C.field v "table" in
  let* rows =
    match table_v with
    | Value.List rows ->
        let rec loop acc = function
          | [] -> Ok (List.rev acc)
          | rv :: rest ->
              let* row = row_of_value rv in
              loop (row :: acc) rest
        in
        loop [] rows
    | _ -> Error "class state: table not a list"
  in
  st.class_id <- class_id;
  st.next_spec <- next_spec;
  st.interface <- interface;
  st.instance_units <- instance_units;
  st.instance_kind <- instance_kind;
  st.instance_cache_capacity <- cap;
  st.superclass <- superclass;
  st.bases <- bases;
  st.flags <- { abstract; private_; fixed };
  st.default_magistrates <- dmags;
  st.default_scheduler <- dsched;
  st.rr <- rr;
  st.clones <- clones;
  st.clone_rr <- clone_rr;
  st.binding_policy <- binding_policy;
  Loid.Lru.clear st.table;
  List.iter (Loid.Lru.add st.table) (List.rev rows);
  Ok ()

let make_state ?interface ?(instance_units = [ Well_known.unit_object ])
    ?(instance_kind = Well_known.kind_app) ?instance_cache_capacity ?superclass
    ?(flags = default_flags) ?(default_magistrates = []) ?default_scheduler
    ?(binding_policy = Policy.Allow_all) ~class_id () =
  let interface =
    match interface with
    | Some i -> i
    | None -> Interface.empty (Printf.sprintf "class%Ld" class_id)
  in
  {
    class_id;
    next_spec = 1L;
    interface;
    instance_units;
    instance_kind;
    instance_cache_capacity;
    superclass;
    bases = [];
    flags;
    default_magistrates;
    default_scheduler;
    rr = 0;
    clones = [];
    clone_rr = 0;
    binding_policy;
    table = Loid.Lru.create ~key:(fun r -> r.loid) ();
  }

let init_state ?interface ?instance_units ?instance_kind ?instance_cache_capacity
    ?superclass ?flags ?default_magistrates ?default_scheduler ?binding_policy
    ~class_id () =
  state_to_value
    (make_state ?interface ?instance_units ?instance_kind ?instance_cache_capacity
       ?superclass ?flags ?default_magistrates ?default_scheduler ?binding_policy
       ~class_id ())

(* ------------------------------------------------------------------ *)
(* Behaviour.                                                          *)

let find_row st loid = Loid.Lru.peek st.table loid

let dedup_units units =
  List.rev
    (List.fold_left (fun acc u -> if List.mem u acc then acc else u :: acc) [] units)

(* Load factor past which the class sheds Create/Derive by policy.
   Lookups (GetBinding) are never policy-shed: under overload the
   control plane degrades before the data plane, so existing objects
   stay reachable while new-object churn is pushed back. *)
let create_shed_threshold = 0.5

(* The StartElastic loop's settings. *)
let clone_hi = 0.5 (* load factor past which a sample counts hot *)
let clone_sustain = 2 (* consecutive hot samples before cloning *)

(* Creates per period per clone that keep the ring growing (and, with
   no clones yet, the per-period demand that bootstraps it). *)
let clone_grow_rate = 15.0
let clone_lo_rate = 8.0 (* demand per clone below which it cools *)
let clone_merge_sustain = 3 (* cool periods before a clone retires *)
let max_clones = 2

let factory (ctx : Runtime.ctx) : Impl.part =
  let rt = ctx.Runtime.rt in
  let self = Runtime.proc_loid ctx.Runtime.self in
  let st =
    make_state ~interface:(Interface.empty "uninitialised")
      ~class_id:(Loid.class_id self) ()
  in
  (* Downstream calls made on behalf of a request keep the request's
     Responsible and Security Agents and substitute this class as the
     Calling Agent (§2.4). *)
  let invoke_for env dst meth args k =
    Runtime.invoke ctx ~dst ~meth ~args ~env:(Env.delegate env ~calling:self) k
  in

  (* Binding-path MayI (§2.4): the class's own policy judges the call's
     environment before Create or GetBinding is served, so an uncleared
     principal is answered [Denied] and never receives a binding —
     resolution itself is the first enforcement point, not the target
     object's method dispatch. *)
  let policy_gate ~meth env k serve =
    match Policy.check st.binding_policy ~meth ~env with
    | Policy.Allow -> serve ()
    | Policy.Deny reason ->
        k (Error (Runtime.deny_reply rt ctx.Runtime.self ~meth ~env ~reason))
  in

  (* Creates are the expensive contention point at a class: charge the
     caller's tenant rate budget here too — unless this class runs under
     an admission budget, in which case the admission path has already
     charged the bucket for this call. *)
  let charge_create env k serve =
    match Runtime.admission_of ctx.Runtime.self with
    | Some _ -> serve ()
    | None -> (
        match Runtime.charge_quota rt ctx.Runtime.self ~meth:"Create" ~env with
        | Ok () -> serve ()
        | Error e -> k (Error e))
  in

  (* Pick a Magistrate for a new object: explicit hint, else round-robin
     over the class's default list. *)
  let pick_magistrate hint =
    match hint with
    | Some m -> Some m
    | None -> (
        match st.default_magistrates with
        | [] -> None
        | mags ->
            let n = List.length mags in
            let m = List.nth mags (st.rr mod n) in
            st.rr <- st.rr + 1;
            Some m)
  in

  (* Ask magistrates in order to activate [loid]; first success wins. *)
  let activate_via_magistrates ~env row loid ~stale ~host_hint k =
    let hints =
      Value.Record
        [
          ("stale", C.vopt Address.to_value stale);
          ("host", C.vopt Loid.to_value host_hint);
          ("sched", C.vopt Loid.to_value row.sched);
        ]
    in
    (* A scan over possibly-dead Magistrates: split the caller's patience
       across the entries so one unreachable Magistrate cannot exhaust it
       before the fallbacks get their turn. *)
    let entries = List.length row.magistrates + List.length row.candidates in
    let scan_timeout =
      (Runtime.config rt).Runtime.call_timeout
      /. float_of_int (Stdlib.max 1 entries + 1)
    in
    let rec try_mags = function
      | [] -> k (Error (Err.Not_bound "no magistrate could activate the object"))
      | m :: rest ->
          Runtime.invoke ctx ~timeout:scan_timeout ~max_rebinds:1 ~dst:m
            ~meth:"Activate"
            ~args:[ Loid.to_value loid; hints ]
            ~env:(Env.delegate env ~calling:self)
            (fun r ->
              match r with
              | Ok bv -> (
                  match Binding.of_value bv with
                  | Ok b ->
                      row.address <- Some (Binding.address b);
                      (* Units that keep durable in-doubt work (the
                         transaction coordinator's WAL, a participant's
                         restored prepare lock) register a resume
                         method; poke it fire-and-forget on every
                         activation, proactive (NotifyDead) or
                         on-demand (a stale-binding rebind), so
                         recovery re-drives what a crash interrupted no
                         matter which path reached the object first.
                         Resume methods are idempotent — an
                         already-running instance ignores the poke. *)
                      (match Impl.resume_method_for st.instance_units with
                      | None -> ()
                      | Some meth ->
                          Runtime.invoke ctx ~dst:loid ~meth ~args:[] ~env
                            (fun _ -> ()));
                      k (Ok bv)
                  | Error msg -> k (Error (Err.Internal ("bad binding: " ^ msg))))
              | Error _ when rest <> [] -> try_mags rest
              | Error e -> k (Error e))
    in
    (* The Current Magistrate List first; when it is exhausted, the
       Candidate Magistrate List — "the Magistrates that may be given
       responsibility for the object" (Fig. 16) — may hold a copy (an
       earlier Copy, a site mirror). *)
    let candidates =
      List.filter
        (fun c -> not (List.exists (Loid.equal c) row.magistrates))
        row.candidates
    in
    try_mags (row.magistrates @ candidates)
  in

  (* GetBinding: Fig. 17's class step — answer from the logical table,
     or consult a Current Magistrate, activating on demand. A refresh
     (the binding form) that reports exactly the recorded address
     disproves it: do not serve it, but do not erase it either until a
     Magistrate confirms a replacement. Objects with an empty Current
     Magistrate List (externally-started infrastructure, §4.2.1, and
     replicas registered via RegisterInstance) have nothing to
     reactivate from: their registered address is the best information
     there is, and the caller's failure may be a transient partition.
     Table answers carry epoch 0: a row keeps only the address. *)
  let get_binding _ctx args env k =
    policy_gate ~meth:"GetBinding" env k @@ fun () ->
    match args with
    | [ arg ] -> (
        match Binding.request_of_value arg with
        | None -> Impl.bad_args k "GetBinding expects a loid or a binding"
        | Some req -> (
            let loid = Binding.request_loid req in
            match find_row st loid with
            | None -> k (Error (Err.Not_bound "object not created by this class"))
            | Some row -> (
                let stale =
                  match req with
                  | Refresh b -> Some (Binding.address b)
                  | Lookup _ -> None
                in
                match row.address with
                | Some a
                  when row.magistrates = []
                       || not (Option.equal Address.equal stale (Some a)) ->
                    let b = Runtime.mint_binding rt ~epoch:0 ~loid a in
                    k (Ok (Binding.to_value b))
                | _ -> activate_via_magistrates ~env row loid ~stale ~host_hint:None k)))
    | _ -> Impl.bad_args k "GetBinding expects one argument"
  in

  (* The placement tail of Create and Derive: store the new object's
     OPR with its Magistrate, add its table row (a class LOID is a
     subclass; with no Scheduling Agent of its own the row takes the
     class default current at that moment), and reply with the LOID —
     activated first when [eager]. *)
  let place ~env ~magistrate ~loid ~opr ~sched ~candidates ~eager ~host_hint k =
    invoke_for env magistrate "StoreObject"
      [ Loid.to_value loid; Value.Blob (Opr.to_blob opr) ]
      (fun r ->
        match r with
        | Error e -> k (Error e)
        | Ok _ -> (
            let row =
              {
                loid;
                address = None;
                magistrates = [ magistrate ];
                sched =
                  (match sched with Some _ -> sched | None -> st.default_scheduler);
                candidates;
                is_subclass = Loid.is_class loid;
              }
            in
            Loid.Lru.add st.table row;
            let reply_with binding =
              k
                (Ok
                   (Value.Record
                      [
                        ("loid", Loid.to_value loid);
                        ("binding", C.vopt Fun.id binding);
                      ]))
            in
            if not eager then reply_with None
            else
              activate_via_magistrates ~env row loid ~stale:None ~host_hint
                (fun r ->
                  match r with
                  | Ok bv -> reply_with (Some bv)
                  | Error e -> k (Error e))))
  in

  (* Create arrivals seen by this incarnation — redirected and shed
     ones included. The elastic loop diffs it for its cool-down signal:
     once the class redirects, its own load factor collapses by
     construction, so demand rate is the only honest "still hot?"
     measure. *)
  let creates_seen = ref 0 in

  (* Create(init_states, hints): the is-a relation (§2.1.1). *)
  let create _ctx args env k =
    policy_gate ~meth:"Create" env k @@ fun () ->
    charge_create env k @@ fun () ->
    match args with
    | [ init_states; hints ] -> (
        incr creates_seen;
        if st.clones <> [] then begin
          (* §5.2.2: "new instantiation requests are passed to the
             cloned object" — answered as a redirect the caller
             re-issues at the clone. Proxying instead would hold this
             class's inflight slot for the downstream create's whole
             duration: zero admission relief. *)
          let n = List.length st.clones in
          let pick = List.nth st.clones (st.clone_rr mod n) in
          st.clone_rr <- st.clone_rr + 1;
          k (Ok (Value.Record [ ("redirect", Loid.to_value pick) ]))
        end
        else if Runtime.load_factor ctx.Runtime.self >= create_shed_threshold then
          k (Error (Runtime.shed_reply rt ctx.Runtime.self ~meth:"Create"))
        else if st.flags.abstract then
          k (Error (Err.Refused "abstract class: no direct instances"))
        else
          let states =
            match init_states with Value.Record fields -> fields | _ -> []
          in
          let decoded =
            let* mag_hint = C.opt_loid_field hints "magistrate" in
            let* host_hint = C.opt_loid_field hints "host" in
            let* eager = C.bool_field ~default:false hints "eager" in
            let* sched = C.opt_loid_field hints "sched" in
            let* candidates = C.loid_list_field ~default:[] hints "candidates" in
            let* public_key = C.opt_str_field hints "public_key" in
            Ok (mag_hint, host_hint, eager, sched, candidates, public_key)
          in
          match decoded with
          | Error msg -> Impl.bad_args k msg
          | Ok (mag_hint, host_hint, eager, sched, candidates, public_key) -> (
              match pick_magistrate mag_hint with
              | None -> k (Error (Err.Refused "class has no magistrate to place objects"))
              | Some magistrate ->
                  (* §3.2: the LOID's low-order bits are the object's
                     public key. The key is part of the object's
                     identity: a LOID quoting the wrong key names a
                     different (nonexistent) object everywhere — the
                     logical table, dispatch, the caches. *)
                  let loid =
                    Loid.make
                      ?public_key
                      ~class_id:st.class_id ~class_specific:st.next_spec ()
                  in
                  st.next_spec <- Int64.add st.next_spec 1L;
                  (* Typed classes seed the typecheck unit with the
                     class's current interface unless the caller
                     supplied one explicitly. *)
                  let states =
                    if
                      List.mem Typecheck_part.unit_name st.instance_units
                      && not (List.mem_assoc Typecheck_part.unit_name states)
                    then
                      (Typecheck_part.unit_name, Interface.to_value st.interface)
                      :: states
                    else states
                  in
                  let opr =
                    Opr.make ~states
                      ?binding_agent:(Runtime.binding_agent ctx.Runtime.self)
                      ?cache_capacity:st.instance_cache_capacity
                      ~kind:st.instance_kind ~units:st.instance_units ()
                  in
                  place ~env ~magistrate ~loid ~opr ~sched ~candidates ~eager
                    ~host_hint k))
    | _ -> Impl.bad_args k "Create expects (init_states, hints)"
  in

  (* Derive(spec): the kind-of relation. Also used by Clone() and by
     the elastic loop's self-cloning — the latter with [internal] set,
     because self-cloning triggers exactly when the load factor is
     already past the shed threshold. *)
  let do_derive ?(internal = false) ~env spec k =
    if
      (not internal)
      && Runtime.load_factor ctx.Runtime.self >= create_shed_threshold
    then k (Error (Runtime.shed_reply rt ctx.Runtime.self ~meth:"Derive"))
    else if st.flags.private_ then
      k (Error (Err.Refused "private class: no subclasses"))
    else
      let decoded =
        let* name = C.str_field spec "name" in
        let* units = C.str_list_field ~default:[] spec "units" in
        let* idl = C.opt_str_field spec "idl" in
        let* mpl = C.opt_str_field spec "mpl" in
        let* abstract = C.bool_field ~default:false spec "abstract" in
        let* private_ = C.bool_field ~default:false spec "private" in
        let* fixed = C.bool_field ~default:false spec "fixed" in
        let* class_units = C.str_list_field ~default:[] spec "class_units" in
        let* typed = C.bool_field ~default:false spec "typed" in
        let* exclude = C.str_list_field ~default:[] spec "exclude_units" in
        let* kind = C.opt_str_field spec "kind" in
        let* mag_hint = C.opt_loid_field spec "magistrate" in
        let* eager = C.bool_field ~default:true spec "eager" in
        (* Either field takes either of the paper's two IDLs (§2
           footnote); an error names the field it came from. *)
        let parse field src =
          Result.map_error
            (fun e -> Format.asprintf "%s: %a" field Parser.pp_error e)
            (Parser.interface src)
        in
        let* iface =
          match (idl, mpl) with
          | Some _, Some _ -> Error "spec carries both idl and mpl sources"
          | None, None -> Ok (Interface.empty name)
          | Some src, None -> parse "idl" src
          | None, Some src -> parse "mpl" src
        in
        Ok (name, units, iface, abstract, private_, fixed, class_units, kind,
            mag_hint, eager, typed, exclude)
      in
      match decoded with
      | Error msg -> Impl.bad_args k msg
      | Ok (name, units, iface, abstract, private_, fixed, class_units, kind,
            mag_hint, eager, typed, exclude) -> (
          match pick_magistrate mag_hint with
          | None -> k (Error (Err.Refused "class has no magistrate to place subclasses"))
          | Some magistrate ->
              (* Step 1: obtain a fresh Class Identifier from LegionClass,
                 which records the responsibility pair <self, child>
                 (§4.1.3). *)
              invoke_for env Well_known.legion_class "NewClassId"
                [ Loid.to_value self; Value.Str name ]
                (fun r ->
                  match r with
                  | Error e -> k (Error e)
                  | Ok cid_v -> (
                      match Value.to_i64 cid_v with
                      | Error _ -> k (Error (Err.Internal "NewClassId: bad reply"))
                      | Ok cid ->
                          let child = Loid.make ~class_id:cid ~class_specific:0L () in
                          let child_iface =
                            Interface.merge
                              (Interface.make ~name (Interface.signatures iface))
                              st.interface
                          in
                          let typed_units =
                            if typed then [ Typecheck_part.unit_name ] else []
                          in
                          (* Selective inheritance (§2.1 footnote:
                             "Legion may allow a class to select the
                             components that it wishes to inherit"):
                             excluded units are dropped from the
                             inherited list; the base unit always
                             stays. *)
                          let inherited =
                            List.filter
                              (fun u ->
                                u = Well_known.unit_object
                                || not (List.mem u exclude))
                              st.instance_units
                          in
                          let child_state_v =
                            init_state ~interface:child_iface
                              ~instance_units:
                                (dedup_units (typed_units @ units @ inherited))
                              ~instance_kind:(Option.value ~default:st.instance_kind kind)
                              ?instance_cache_capacity:st.instance_cache_capacity
                              ~superclass:self
                              ~flags:{ abstract; private_; fixed }
                              ~default_magistrates:st.default_magistrates
                              ?default_scheduler:st.default_scheduler
                              ~binding_policy:st.binding_policy ~class_id:cid ()
                          in
                          let opr =
                            Opr.make
                              ~states:[ (unit_name, child_state_v) ]
                              ?binding_agent:(Runtime.binding_agent ctx.Runtime.self)
                              ~kind:Well_known.kind_class
                              ~units:
                                (dedup_units
                                   (class_units
                                   @ [ unit_name; Well_known.unit_object ]))
                              ()
                          in
                          place ~env ~magistrate ~loid:child ~opr ~sched:None
                            ~candidates:[] ~eager ~host_hint:None k)))
  in

  let derive _ctx args env k =
    match args with
    | [ spec ] -> do_derive ~env spec k
    | _ -> Impl.bad_args k "Derive expects one spec record"
  in

  (* Clone(): §5.2.2 — "the cloned class is derived from the heavily
     used class without changing the interface in any way". *)
  let clone _ctx args env k =
    match args with
    | [] ->
        let spec =
          Value.Record
            [
              ( "name",
                Value.Str
                  (Printf.sprintf "%s~clone%Ld" (Interface.name st.interface)
                     st.next_spec) );
            ]
        in
        do_derive ~env spec k
    | _ -> Impl.bad_args k "Clone takes no arguments"
  in

  (* InheritFrom(base): the inherits-from relation — "an active process
     carried out at run-time" (§2.1). *)
  let inherit_from _ctx args env k =
    match args with
    | [ base_v ] -> (
        if st.flags.fixed then
          k (Error (Err.Refused "fixed class: inherits only from its superclass"))
        else
          match C.loid_arg base_v with
          | Error msg -> Impl.bad_args k msg
          | Ok base ->
              invoke_for env base "GetInheritInfo" [] (fun r ->
                  match r with
                  | Error e -> k (Error e)
                  | Ok info -> (
                      let decoded =
                        let* units = C.str_list_field info "units" in
                        let* iface_v = C.field info "iface" in
                        let* iface = Interface.of_value iface_v in
                        Ok (units, iface)
                      in
                      match decoded with
                      | Error msg -> k (Error (Err.Internal msg))
                      | Ok (base_units, base_iface) ->
                          st.instance_units <-
                            dedup_units (st.instance_units @ base_units);
                          st.interface <- Interface.merge st.interface base_iface;
                          st.bases <- st.bases @ [ base ];
                          k Impl.ok_unit)))
    | _ -> Impl.bad_args k "InheritFrom expects one base-class loid"
  in

  let get_inherit_info _ctx args _env k =
    match args with
    | [] ->
        k
          (Ok
             (Value.Record
                [
                  ("units", C.vstrs st.instance_units);
                  ("iface", Interface.to_value st.interface);
                ]))
    | _ -> Impl.bad_args k "GetInheritInfo takes no arguments"
  in

  let get_interface _ctx args _env k =
    match args with
    | [] -> k (Ok (Interface.to_value st.interface))
    | _ -> Impl.bad_args k "GetInterface takes no arguments"
  in

  (* Delete(loid): remove instance or subclass everywhere (§3.8). *)
  let delete _ctx args env k =
    match args with
    | [ loid_v ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid -> (
            match find_row st loid with
            | None -> k (Error (Err.Not_bound "object not created by this class"))
            | Some row ->
                let rec tell_mags = function
                  | [] ->
                      Loid.Lru.remove st.table loid;
                      k Impl.ok_unit
                  | m :: rest ->
                      invoke_for env m "Delete" [ Loid.to_value loid ] (fun _ ->
                          (* Best effort: a refusing or dead Magistrate
                             leaves a garbage OPR, not a live object. *)
                          tell_mags rest)
                in
                tell_mags row.magistrates))
    | _ -> Impl.bad_args k "Delete expects one loid"
  in

  let register_instance _ctx args _env k =
    match args with
    | [ loid_v; addr_v ] -> (
        let decoded =
          let* loid = C.loid_arg loid_v in
          let* addr = Address.of_value addr_v in
          Ok (loid, addr)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (loid, addr) ->
            (match find_row st loid with
            | Some row -> row.address <- Some addr
            | None ->
                Loid.Lru.add st.table
                  {
                    loid;
                    address = Some addr;
                    magistrates = [];
                    sched = st.default_scheduler;
                    candidates = [];
                    is_subclass = Loid.is_class loid;
                  });
            k Impl.ok_unit)
    | _ -> Impl.bad_args k "RegisterInstance expects (loid, address)"
  in

  let notify_address _ctx args _env k =
    match args with
    | [ loid_v; addr_opt_v ] -> (
        let decoded =
          let* loid = C.loid_arg loid_v in
          let* addr =
            match addr_opt_v with
            | Value.List [] -> Ok None
            | Value.List [ a ] -> Result.map (fun a -> Some a) (Address.of_value a)
            | _ -> Error "NotifyAddress: second argument must be opt<address>"
          in
          Ok (loid, addr)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (loid, addr) -> (
            match find_row st loid with
            | None -> k (Error (Err.Not_bound "object not created by this class"))
            | Some row ->
                row.address <- addr;
                k Impl.ok_unit))
    | _ -> Impl.bad_args k "NotifyAddress expects (loid, opt<address>)"
  in

  let notify_magistrates _ctx args _env k =
    match args with
    | [ loid_v; add_v; remove_v ] -> (
        let decoded =
          let* loid = C.loid_arg loid_v in
          let to_loids v =
            match v with
            | Value.List vs ->
                let rec loop acc = function
                  | [] -> Ok (List.rev acc)
                  | x :: rest ->
                      let* l = C.loid_arg x in
                      loop (l :: acc) rest
                in
                loop [] vs
            | _ -> Error "expected a list of loids"
          in
          let* add = to_loids add_v in
          let* remove = to_loids remove_v in
          Ok (loid, add, remove)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (loid, add, remove) -> (
            match find_row st loid with
            | None -> k (Error (Err.Not_bound "object not created by this class"))
            | Some row ->
                let without =
                  List.filter
                    (fun m -> not (List.exists (Loid.equal m) remove))
                    row.magistrates
                in
                let added =
                  List.filter
                    (fun m -> not (List.exists (Loid.equal m) without))
                    add
                in
                row.magistrates <- without @ added;
                k Impl.ok_unit))
    | _ -> Impl.bad_args k "NotifyMagistrates expects (loid, add, remove)"
  in

  (* NotifyDead: a failure detector (a Magistrate heartbeat) reports
     the instance's host dead. Responsibility pairs (§3.7) make this
     class the recovery authority: drop the stale address and
     reactivate from the last OPR on a surviving host through the
     usual magistrate scan — proactively, with no caller waiting for
     the answer. *)
  let notify_dead _ctx args env k =
    match args with
    | [ loid_v ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid -> (
            match find_row st loid with
            | None ->
                k (Error (Err.Not_bound "object not created by this class"))
            | Some row ->
                row.address <- None;
                activate_via_magistrates ~env row loid ~stale:None
                  ~host_hint:None (fun r ->
                    match r with
                    | Ok _ ->
                        Runtime.emit rt
                          ~host:(Runtime.proc_host ctx.Runtime.self)
                          (Legion_obs.Event.Reactivate { loid });
                        (* The resume poke for units with durable
                           in-doubt work happens inside
                           activate_via_magistrates, shared with the
                           on-demand rebind path. *)
                        k Impl.ok_unit
                    | Error e -> k (Error e))))
    | _ -> Impl.bad_args k "NotifyDead expects one loid"
  in

  let set_defaults _ctx args _env k =
    match args with
    | [ v ] -> (
        let decoded =
          let* mags = C.loid_list_field ~default:st.default_magistrates v "magistrates" in
          let* sched = C.opt_loid_field v "sched" in
          Ok (mags, sched)
        in
        match decoded with
        | Error msg -> Impl.bad_args k msg
        | Ok (mags, sched) ->
            st.default_magistrates <- mags;
            (match sched with Some _ -> st.default_scheduler <- sched | None -> ());
            k Impl.ok_unit)
    | _ -> Impl.bad_args k "SetDefaults expects one record"
  in

  (* SetBindingPolicy(policy): install the MayI judged on this class's
     binding path (Create/GetBinding). Gated by the policy being
     replaced, so once a class is locked down an uncleared principal
     cannot simply reopen it. *)
  let set_binding_policy _ctx args env k =
    match args with
    | [ pv ] -> (
        policy_gate ~meth:"SetBindingPolicy" env k @@ fun () ->
        match Policy.of_value pv with
        | Ok p ->
            st.binding_policy <- p;
            k Impl.ok_unit
        | Error msg -> Impl.bad_args k msg)
    | _ -> Impl.bad_args k "SetBindingPolicy expects one policy value"
  in

  (* Newest first, as the table keeps them. *)
  let loids_where keep =
    Loid.Lru.fold (fun r acc -> if keep r then r.loid :: acc else acc) st.table []
  in

  let list_instances _ctx args _env k =
    match args with
    | [] -> k (Ok (C.vloids (loids_where (fun r -> not r.is_subclass))))
    | _ -> Impl.bad_args k "ListInstances takes no arguments"
  in

  let list_subclasses _ctx args _env k =
    match args with
    | [] -> k (Ok (C.vloids (loids_where (fun r -> r.is_subclass))))
    | _ -> Impl.bad_args k "ListSubclasses takes no arguments"
  in

  let get_class_info _ctx args _env k =
    match args with
    | [] ->
        let n_sub =
          Loid.Lru.fold (fun r n -> if r.is_subclass then n + 1 else n) st.table 0
        in
        let n_inst = Loid.Lru.length st.table - n_sub in
        k
          (Ok
             (Value.Record
                [
                  ("cid", Value.I64 st.class_id);
                  ("name", Value.Str (Interface.name st.interface));
                  ("abstract", Value.Bool st.flags.abstract);
                  ("private", Value.Bool st.flags.private_);
                  ("fixed", Value.Bool st.flags.fixed);
                  ("units", C.vstrs st.instance_units);
                  ("kind", Value.Str st.instance_kind);
                  ("super", C.vopt Loid.to_value st.superclass);
                  ("bases", C.vloids st.bases);
                  ("instances", Value.Int n_inst);
                  ("subclasses", Value.Int n_sub);
                ]))
    | _ -> Impl.bad_args k "GetClassInfo takes no arguments"
  in

  (* StartElastic(period, until): E4 made automatic, until the absolute
     virtual time [until]. Every [period] the class samples its own
     admission load factor. [clone_sustain] consecutive hot samples
     derive a clone (via [do_derive ~internal], since the trigger fires
     exactly when ordinary Derives are being shed) and push it onto the
     redirect ring, up to [max_clones]; with a ring in place, further
     growth is demand-driven ([clone_grow_rate] Creates per period per
     clone). Cool-down also watches demand, not load — a redirecting
     parent idles by construction: when the per-period Create rate per
     clone stays below [clone_lo_rate] for [clone_merge_sustain]
     periods, the newest clone is retired from the ring. Retired ≠
     deleted: the clone stays the responsible class for every instance
     it minted (§3.7); it just receives no new redirections. *)
  let start_elastic _ctx args env k =
    match args with
    | [ Value.Float period; Value.Float until ] ->
        if period <= 0.0 then
          Impl.bad_args k "StartElastic: period must be positive"
        else begin
          let eng = Runtime.sim rt in
          let denv = Env.delegate env ~calling:self in
          let hot = ref 0 in
          let cool = ref 0 in
          let last_creates = ref !creates_seen in
          let cloning = ref false in
          let self_clone () =
            cloning := true;
            let spec =
              Value.Record
                [
                  ( "name",
                    Value.Str
                      (Printf.sprintf "%s~auto%d"
                         (Interface.name st.interface)
                         (List.length st.clones + 1)) );
                ]
            in
            do_derive ~internal:true ~env:denv spec (fun r ->
                cloning := false;
                match r with
                | Ok reply -> (
                    match C.loid_field reply "loid" with
                    | Ok clone ->
                        st.clones <- st.clones @ [ clone ];
                        Runtime.emit rt
                          ~host:(Runtime.proc_host ctx.Runtime.self)
                          (Legion_obs.Event.Clone { cls = self; clone })
                    | Error _ -> ())
                | Error _ -> ())
          in
          let retire_newest () =
            let rec split_last acc = function
              | [] -> None
              | [ last ] -> Some (List.rev acc, last)
              | x :: rest -> split_last (x :: acc) rest
            in
            match split_last [] st.clones with
            | None -> ()
            | Some (keep, retired) ->
                st.clones <- keep;
                Runtime.emit rt
                  ~host:(Runtime.proc_host ctx.Runtime.self)
                  (Legion_obs.Event.Merge { cls = self; clone = retired })
          in
          let rec tick time =
            if time <= until then
              ignore
                (Legion_sim.Engine.schedule_at eng ~time (fun () ->
                     if Runtime.is_live ctx.Runtime.self then begin
                       let demand = !creates_seen - !last_creates in
                       last_creates := !creates_seen;
                       let n = List.length st.clones in
                       (* With no clones yet, either signal starts
                          the ring: a sampled load factor past
                          [clone_hi], or a whole period's Create
                          demand already clearing [clone_grow_rate]
                          (the sampled factor can miss a burst that
                          lands between ticks). *)
                       let hot_now =
                         if n = 0 then
                           Runtime.load_factor ctx.Runtime.self >= clone_hi
                           || float_of_int demand >= clone_grow_rate
                         else
                           float_of_int demand /. float_of_int n
                           >= clone_grow_rate
                       in
                       let cool_now =
                         n > 0
                         && float_of_int demand /. float_of_int n < clone_lo_rate
                       in
                       if hot_now then begin
                         incr hot;
                         cool := 0
                       end
                       else begin
                         hot := 0;
                         if cool_now then incr cool else cool := 0
                       end;
                       if
                         !hot >= clone_sustain && (not !cloning)
                         && List.length st.clones < max_clones
                       then begin
                         hot := 0;
                         self_clone ()
                       end;
                       if !cool >= clone_merge_sustain then begin
                         cool := 0;
                         retire_newest ()
                       end;
                       tick (time +. period)
                     end))
          in
          tick (Runtime.now rt +. period);
          k Impl.ok_unit
        end
    | _ -> Impl.bad_args k "StartElastic expects (period, until)"
  in

  Impl.part
    ~methods:
      [
        ("Create", create);
        ("Derive", derive);
        ("Clone", clone);
        ("InheritFrom", inherit_from);
        ("GetInheritInfo", get_inherit_info);
        ("GetInterface", get_interface);
        ("GetBinding", get_binding);
        ("Delete", delete);
        ("RegisterInstance", register_instance);
        ("NotifyAddress", notify_address);
        ("NotifyMagistrates", notify_magistrates);
        ("NotifyDead", notify_dead);
        ("SetDefaults", set_defaults);
        ("SetBindingPolicy", set_binding_policy);
        ("StartElastic", start_elastic);
        ("ListInstances", list_instances);
        ("ListSubclasses", list_subclasses);
        ("GetClassInfo", get_class_info);
      ]
    ~save:(fun () -> state_to_value st)
    ~restore:(fun v -> state_of_value st v)
    unit_name

let register () = Impl.register unit_name factory
