module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Cache = Legion_naming.Cache
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module C = Legion_core.Convert

let unit_name = "legion.binding_agent"

(* Bound on upward recursion through the class hierarchy; a correct
   hierarchy is a tree rooted at LegionClass, so this only fires on
   corrupted responsibility pairs. *)
let max_resolution_depth = 16

type state = {
  mutable cache : Cache.t;
  mutable capacity : int option;
  mutable parent : Address.t option;
  mutable legion_class : Binding.t option;
  mutable resolved : int;  (* misses resolved through classes *)
  mutable forwarded : int;  (* misses forwarded to the parent agent *)
  (* §5.2.1: "each object may select its Binding Agent based on its
     charge rate" — a price per served lookup and accumulated revenue,
     the hook for a market in binding service. *)
  mutable price : int;
  mutable revenue : int;
}

let state_value ?capacity ?parent ?legion_class () =
  Value.Record
    [
      ("cap", C.vopt Value.of_int capacity);
      ("parent", C.vopt Address.to_value parent);
      ("lc", C.vopt Binding.to_value legion_class);
    ]

let factory (ctx : Runtime.ctx) : Impl.part =
  let rt = ctx.Runtime.rt in
  let self = Runtime.proc_loid ctx.Runtime.self in
  let host = Runtime.proc_host ctx.Runtime.self in
  let emit kind = Runtime.emit rt ~host kind in
  let st =
    {
      cache = Cache.create ();
      capacity = None;
      parent = None;
      legion_class = None;
      resolved = 0;
      forwarded = 0;
      price = 0;
      revenue = 0;
    }
  in
  let now () = Runtime.now rt in

  (* Direct invocation by binding — Binding Agents never use a Binding
     Agent themselves. Resolution performed on behalf of a request
     keeps the requester's Responsible/Security Agents with this agent
     as the Calling Agent (§2.4). The delegated environment [renv] is
     threaded through the whole resolution as a parameter: concurrent
     GetBinding resolutions interleave across these continuations, so a
     shared mutable cell would leak one requester's authority into
     another's upward calls. *)
  let call_binding renv b meth args k =
    Runtime.invoke_binding ctx ~binding:b ~meth ~args ~env:renv k
  in

  (* Decode and cache an answer to GetBinding. *)
  let answer k r =
    match r with
    | Error e -> k (Error e)
    | Ok bv -> (
        match Binding.of_value bv with
        | Error msg -> k (Error (Err.Internal msg))
        | Ok b ->
            Cache.add st.cache ~now:(now ()) b;
            k (Ok b))
  in

  (* The one lookup (§4.1.2–4.1.3): a request is answered by its
     target's owner — for a class, the creator LegionClass's
     responsibility pair names; for an instance, the class found by
     zeroing the Class Specific field. [depth] counts the class
     hierarchy climbed and guards against corrupted pair tables. *)
  let rec lookup renv req depth k =
    let target = Binding.request_loid req in
    if Loid.is_class target then
      match st.legion_class with
      | None -> k (Error (Err.Not_bound "agent has no LegionClass binding"))
      | Some lc ->
          call_binding renv lc "LocateClass" [ Loid.to_value target ] (fun r ->
              match r with
              | Error e -> k (Error e)
              | Ok reply -> (
                  match C.loid_field reply "creator" with
                  | Error msg -> k (Error (Err.Internal msg))
                  | Ok creator -> ask_owner renv creator (depth + 1) req k))
    else ask_owner renv (Loid.responsible_class target) depth req k

  (* The owner's binding comes from the seeded LegionClass binding (the
     recursion's base case), from the cache, or from the same lookup. *)
  and ask_owner renv owner depth req k =
    if depth > max_resolution_depth then
      k (Error (Err.Not_bound "class resolution depth exceeded"))
    else
      match st.legion_class with
      | Some lc when Loid.equal owner (Binding.loid lc) ->
          ask renv owner lc depth req k
      | _ -> (
          match Cache.find st.cache ~now:(now ()) owner with
          | Some b -> ask renv owner b depth req k
          | None ->
              lookup renv (Binding.Lookup owner) depth (fun r ->
                  match r with
                  | Error e -> k (Error e)
                  | Ok b -> ask renv owner b depth req k))

  (* The owner is asked once. Bindings are invoked directly (no rebind
     machinery up here), so if the placement a cached owner binding
     names is gone — the class object crashed and has not been
     reactivated — the entry would pin every lookup that routes through
     it to the same dead address. On a delivery failure: drop the entry,
     refresh the owner through its own owner (which can reactivate it
     via its Magistrates), and ask again once. *)
  and ask renv owner owner_b depth req k =
    let arg = Binding.request_to_value req in
    call_binding renv owner_b "GetBinding" [ arg ] (fun r ->
        match r with
        | Error e
          when Err.is_delivery_failure e
               && not (Loid.equal owner Well_known.legion_class) ->
            Cache.invalidate_exact st.cache owner_b;
            lookup renv (Binding.Refresh owner_b) depth (fun r ->
                match r with
                | Error _ ->
                    (* Report the original failure: the refresh is a
                       repair attempt, not the caller's question. *)
                    k (Error e)
                | Ok owner_b' ->
                    call_binding renv owner_b' "GetBinding" [ arg ] (answer k))
        | r -> answer k r)
  in

  (* The single miss point. A class target is forwarded up the
     combining tree when a parent is configured (§5.2.2); LegionClass
     is answered from its seeded binding; everything else is looked
     up. *)
  let resolve renv req k =
    let target = Binding.request_loid req in
    let stale = match req with Binding.Refresh _ -> true | Lookup _ -> false in
    emit (Legion_obs.Event.Resolve { owner = self; target; stale });
    match st.parent with
    | Some parent_addr when Loid.is_class target ->
        st.forwarded <- st.forwarded + 1;
        Runtime.invoke_address ctx ~address:parent_addr ~dst:Loid.wildcard
          ~meth:"GetBinding"
          ~args:[ Binding.request_to_value req ]
          ~env:renv (answer k)
    | _ -> (
        st.resolved <- st.resolved + 1;
        match st.legion_class with
        | Some lc when Loid.equal target Well_known.legion_class -> k (Ok lc)
        | _ -> lookup renv req 0 k)
  in

  let get_binding _ctx args env k =
    let renv = Env.delegate env ~calling:self in
    match args with
    | [ arg ] -> (
        let finish r =
          match r with
          | Ok b ->
              st.revenue <- st.revenue + st.price;
              k (Ok (Binding.to_value b))
          | Error e -> k (Error e)
        in
        match Binding.request_of_value arg with
        | None -> Impl.bad_args k "GetBinding expects a loid or a binding"
        | Some req -> (
            let target = Binding.request_loid req in
            (* A refresh never serves the cache if it still holds the
               failing binding. [find_refresh] decides in one counted
               lookup, so each request moves the hit-rate statistics by
               exactly one. *)
            let cached =
              match req with
              | Lookup loid -> Cache.find st.cache ~now:(now ()) loid
              | Refresh stale -> Cache.find_refresh st.cache ~now:(now ()) ~stale
            in
            match cached with
            | Some b ->
                emit (Legion_obs.Event.Cache_hit { owner = self; target });
                finish (Ok b)
            | None -> (
                emit (Legion_obs.Event.Cache_miss { owner = self; target });
                match req with
                | Lookup _ -> resolve renv req finish
                | Refresh stale ->
                    (* Graceful degradation (§5.2.2 spirit): if the
                       upstream resolver — parent agent or class — is
                       shedding load, a stale-but-unexpired binding the
                       caller already holds beats failing the lookup.
                       The caller may find the placement still answers
                       (its failure was transient); if not, it will be
                       back after the resolver drains. The binding goes
                       back in the cache: it remains our best answer
                       until a refresh can actually run. *)
                    resolve renv req (fun r ->
                        match r with
                        | Error e
                          when Err.is_overload e
                               && Binding.is_valid ~now:(now ()) stale ->
                            emit
                              (Legion_obs.Event.Stale_serve
                                 { owner = self; target });
                            Cache.add st.cache ~now:(now ()) stale;
                            finish (Ok stale)
                        | r -> finish r))))
    | _ -> Impl.bad_args k "GetBinding expects one argument"
  in

  let invalidate_binding _ctx args _env k =
    match args with
    | [ arg ] -> (
        match Binding.request_of_value arg with
        | Some (Lookup loid) ->
            Cache.invalidate st.cache loid;
            k Impl.ok_unit
        | Some (Refresh b) ->
            Cache.invalidate_exact st.cache b;
            k Impl.ok_unit
        | None -> Impl.bad_args k "InvalidateBinding expects a loid or a binding")
    | _ -> Impl.bad_args k "InvalidateBinding expects one argument"
  in

  let add_binding _ctx args _env k =
    match args with
    | [ arg ] -> (
        match C.binding_arg arg with
        | Ok b ->
            Cache.add st.cache ~now:(now ()) b;
            k Impl.ok_unit
        | Error msg -> Impl.bad_args k msg)
    | _ -> Impl.bad_args k "AddBinding expects one binding"
  in

  let set_parent _ctx args _env k =
    match args with
    | [ Value.List [] ] ->
        st.parent <- None;
        k Impl.ok_unit
    | [ Value.List [ a ] ] -> (
        match Address.of_value a with
        | Ok addr ->
            st.parent <- Some addr;
            k Impl.ok_unit
        | Error msg -> Impl.bad_args k msg)
    | _ -> Impl.bad_args k "SetParent expects opt<address>"
  in

  let get_stats _ctx args _env k =
    match args with
    | [] ->
        k
          (Ok
             (Value.Record
                [
                  ("lookups", Value.Int (Cache.lookups st.cache));
                  ("hits", Value.Int (Cache.hits st.cache));
                  ("entries", Value.Int (Cache.length st.cache));
                  ("evictions", Value.Int (Cache.evictions st.cache));
                  ("resolved", Value.Int st.resolved);
                  ("forwarded", Value.Int st.forwarded);
                  ("price", Value.Int st.price);
                  ("revenue", Value.Int st.revenue);
                ]))
    | _ -> Impl.bad_args k "GetStats takes no arguments"
  in

  let set_price _ctx args _env k =
    match args with
    | [ Value.Int p ] ->
        if p < 0 then Impl.bad_args k "SetPrice expects a non-negative int"
        else begin
          st.price <- p;
          k Impl.ok_unit
        end
    | _ -> Impl.bad_args k "SetPrice expects one int"
  in

  let save () =
    (* An unconfigured agent saves an absent LegionClass binding and
       restores as unconfigured — fabricating a placeholder here would
       turn "not bound" into "bound to host 0". *)
    let base =
      state_value ?capacity:st.capacity ?parent:st.parent
        ?legion_class:st.legion_class ()
    in
    match base with
    | Value.Record fields ->
        Value.Record
          (fields @ [ ("price", Value.Int st.price); ("rev", Value.Int st.revenue) ])
    | other -> other
  in
  let restore v =
    let ( let* ) r f = Result.bind r f in
    let* cap = C.opt_int_field v "cap" in
    let* parent = C.opt_address_field v "parent" in
    let* lc = C.opt_field v "lc" Binding.of_value in
    st.capacity <- cap;
    st.cache <- Cache.create ?capacity:cap ();
    st.parent <- parent;
    st.legion_class <- lc;
    (match C.int_field v "price" with Ok p -> st.price <- p | Error _ -> ());
    (match C.int_field v "rev" with Ok r -> st.revenue <- r | Error _ -> ());
    Ok ()
  in
  Impl.part
    ~methods:
      [
        ("GetBinding", get_binding);
        ("InvalidateBinding", invalidate_binding);
        ("AddBinding", add_binding);
        ("SetParent", set_parent);
        ("GetStats", get_stats);
        ("SetPrice", set_price);
      ]
    ~save ~restore unit_name

let register () = Impl.register unit_name factory
