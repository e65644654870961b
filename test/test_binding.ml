(* Tests for Binding Agents: the §3.6 interface, the §4.1 resolution
   chain through class objects, and the §5.2.2 combining tree. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Well_known = Legion_core.Well_known
module Impl = Legion_core.Impl
module Opr = Legion_core.Opr
module Agent_part = Legion_binding.Agent_part
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module System = Legion.System
module Api = Legion.Api
module H = Helpers

let get_stats sys ctx agent =
  match Api.call sys ctx ~dst:agent ~meth:"GetStats" ~args:[] with
  | Ok v -> v
  | Error e -> Alcotest.failf "GetStats: %s" (Err.to_string e)

let stat v name =
  match Legion_core.Convert.int_field v name with
  | Ok i -> i
  | Error e -> Alcotest.failf "stat %s: %s" name e

let test_agent_resolves_instance () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let agent = (System.site sys 0).System.agent in
  (* Ask the agent directly (clients normally do this implicitly). *)
  match Api.get_binding sys ctx ~via:agent ~target:loid with
  | Ok b -> Alcotest.check H.loid_t "binds right loid" loid (Binding.loid b)
  | Error e -> Alcotest.failf "GetBinding: %s" (Err.to_string e)

let test_agent_resolves_class () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let agent = (System.site sys 1).System.agent in
  (* Resolving a class goes LegionClass -> responsibility pair ->
     creator class -> binding (§4.1.3). *)
  match Api.get_binding sys ctx ~via:agent ~target:cls with
  | Ok b -> Alcotest.check H.loid_t "binds the class" cls (Binding.loid b)
  | Error e -> Alcotest.failf "GetBinding class: %s" (Err.to_string e)

let test_agent_caches () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let agent = (System.site sys 0).System.agent in
  ignore (Api.get_binding sys ctx ~via:agent ~target:loid);
  let s1 = get_stats sys ctx agent in
  ignore (Api.get_binding sys ctx ~via:agent ~target:loid);
  let s2 = get_stats sys ctx agent in
  Alcotest.(check int) "second lookup is a hit" (stat s1 "hits" + 1) (stat s2 "hits");
  Alcotest.(check int) "no extra class resolution" (stat s1 "resolved")
    (stat s2 "resolved")

let test_add_and_invalidate_binding () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let agent = (System.site sys 0).System.agent in
  let fake_loid = Loid.make ~class_id:77L ~class_specific:1L () in
  let fake =
    Binding.make ~loid:fake_loid
      ~address:(Address.singleton (Address.Sim { host = 0; slot = 9999 }))
      ()
  in
  (* AddBinding propagates information "for performance purposes". *)
  (match
     Api.call sys ctx ~dst:agent ~meth:"AddBinding" ~args:[ Binding.to_value fake ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "AddBinding: %s" (Err.to_string e));
  (match Api.get_binding sys ctx ~via:agent ~target:fake_loid with
  | Ok b -> Alcotest.(check bool) "served from cache" true (Binding.equal b fake)
  | Error e -> Alcotest.failf "GetBinding: %s" (Err.to_string e));
  (* InvalidateBinding(loid) removes it; resolution then fails since
     class 77 does not exist. *)
  (match
     Api.call sys ctx ~dst:agent ~meth:"InvalidateBinding"
       ~args:[ Loid.to_value fake_loid ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "InvalidateBinding: %s" (Err.to_string e));
  match Api.get_binding sys ctx ~via:agent ~target:fake_loid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalidated binding still served"

let test_get_binding_refresh_form () =
  (* GetBinding(binding) must bypass the cache and return a fresh
     binding after the object moved. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls () in
  let _ = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 1 ] in
  let agent = (System.site sys 0).System.agent in
  let b1 =
    match Api.get_binding sys ctx ~via:agent ~target:loid with
    | Ok b -> b
    | Error e -> Alcotest.failf "initial binding: %s" (Err.to_string e)
  in
  (* Deactivate, so the cached address is dead. *)
  let mag = List.hd (System.magistrates sys) in
  (match Api.call sys ctx ~dst:mag ~meth:"Deactivate" ~args:[ Loid.to_value loid ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deactivate: %s" (Err.to_string e));
  match
    Api.call sys ctx ~dst:agent ~meth:"GetBinding" ~args:[ Binding.to_value b1 ]
  with
  | Error e -> Alcotest.failf "refresh: %s" (Err.to_string e)
  | Ok bv -> (
      match Binding.of_value bv with
      | Error msg -> Alcotest.failf "bad binding: %s" msg
      | Ok b2 ->
          Alcotest.(check bool) "address changed" false
            (Address.equal (Binding.address b1) (Binding.address b2)))

(* The runtime's exactly-once table keeps each served call's reply
   until the entry is evicted, 4,096 calls later, so what a reply holds
   reaches the major heap. A binding crosses the network typed: a warm
   GetBinding answer holds the agent's cached [Binding.t] and a few
   words around it, where its record form reached 148 words. *)
let test_warm_answer_words () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let agent = (System.site sys 0).System.agent in
  let get_binding () =
    match
      Api.call sys ctx ~dst:agent ~meth:"GetBinding" ~args:[ Loid.to_value loid ]
    with
    | Ok v -> v
    | Error e -> Alcotest.failf "GetBinding: %s" (Err.to_string e)
  in
  ignore (get_binding ());
  let words = Obj.reachable_words (Obj.repr (get_binding ())) in
  if words > 60 then
    Alcotest.failf "a warm GetBinding answer reaches %d words (bound 60)" words

(* --- Combining tree (§5.2.2) --- *)

(* Build a chain of extra agents: leaf -> mid -> root(site agent). Class
   lookups from the leaf must be served by forwarding, leaving
   LegionClass traffic to the root only. *)
let test_tree_forwarding () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let site0 = System.site sys 0 in
  let root_proc = System.start_agent sys (List.hd site0.System.net_hosts) in
  let leaf_proc =
    System.start_agent sys ~parent:(Runtime.address_of root_proc)
      (List.nth site0.System.net_hosts 1)
  in
  (* Ask the leaf for a class binding: it must forward, not resolve. *)
  let leaf_addr = Runtime.address_of leaf_proc in
  let reply =
    Api.sync sys (fun k ->
        Runtime.invoke_address ctx ~address:leaf_addr ~dst:Loid.wildcard
          ~meth:"GetBinding" ~args:[ Loid.to_value cls ]
          ~env:(Legion_sec.Env.of_self (Runtime.proc_loid ctx.Runtime.self))
          k)
  in
  (match reply with
  | Ok bv -> (
      match Binding.of_value bv with
      | Ok b -> Alcotest.check H.loid_t "leaf served via parent" cls (Binding.loid b)
      | Error msg -> Alcotest.failf "bad binding: %s" msg)
  | Error e -> Alcotest.failf "leaf GetBinding: %s" (Err.to_string e));
  let leaf_ctx = { Runtime.rt = System.rt sys; self = leaf_proc } in
  ignore leaf_ctx;
  let leaf_stats =
    Api.sync sys (fun k ->
        Runtime.invoke_address ctx ~address:leaf_addr ~dst:Loid.wildcard
          ~meth:"GetStats" ~args:[]
          ~env:(Legion_sec.Env.of_self (Runtime.proc_loid ctx.Runtime.self))
          k)
  in
  match leaf_stats with
  | Ok v ->
      Alcotest.(check int) "leaf forwarded" 1 (stat v "forwarded");
      Alcotest.(check int) "leaf did not resolve" 0 (stat v "resolved")
  | Error e -> Alcotest.failf "leaf stats: %s" (Err.to_string e)

let test_agent_tree_builder () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let tree =
    Legion.Agent_tree.build sys
      ~hosts:(System.site sys 0).System.net_hosts
      ~fanout:2 ~levels:2 ~n_leaves:4
  in
  Alcotest.(check int) "4 leaves" 4 (List.length tree.Legion.Agent_tree.leaves);
  Alcotest.(check int) "1 root" 1 (List.length tree.Legion.Agent_tree.roots);
  Alcotest.(check int) "3 layers" 3 (List.length tree.Legion.Agent_tree.levels);
  (* Every leaf resolves a class through the tree. *)
  List.iter
    (fun leaf ->
      let r =
        Api.sync sys (fun k ->
            Runtime.invoke_address ctx
              ~address:(Runtime.address_of leaf)
              ~dst:Loid.wildcard ~meth:"GetBinding" ~args:[ Loid.to_value cls ]
              ~env:(Legion_sec.Env.of_self (Runtime.proc_loid ctx.Runtime.self))
              k)
      in
      match r with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "leaf resolve: %s" (Err.to_string e))
    tree.Legion.Agent_tree.leaves;
  (* Only the root layer resolved through classes; mid layers forwarded. *)
  let stats_of proc =
    Api.sync sys (fun k ->
        Runtime.invoke_address ctx ~address:(Runtime.address_of proc)
          ~dst:Loid.wildcard ~meth:"GetStats" ~args:[]
          ~env:(Legion_sec.Env.of_self (Runtime.proc_loid ctx.Runtime.self))
          k)
  in
  List.iter
    (fun leaf ->
      match stats_of leaf with
      | Ok v -> Alcotest.(check int) "leaf resolved nothing" 0 (stat v "resolved")
      | Error e -> Alcotest.failf "stats: %s" (Err.to_string e))
    tree.Legion.Agent_tree.leaves;
  match stats_of (List.hd tree.Legion.Agent_tree.roots) with
  | Ok v -> Alcotest.(check bool) "root resolved" true (stat v "resolved" > 0)
  | Error e -> Alcotest.failf "root stats: %s" (Err.to_string e)

let test_arrange_agent_tree () =
  (* Organize a 4-site system's agents under 2 roots; class lookups from
     fresh clients then reach LegionClass only via the roots. *)
  let sys =
    H.register_counter_unit ();
    Legion.System.boot ~seed:81L
      ~sites:[ ("a", 2); ("b", 2); ("c", 2); ("d", 2) ]
      ()
  in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  System.arrange_agent_tree sys ~fanout:2;
  (* A fresh client at every site resolves the class through its site
     agent; every site agent must have forwarded (not resolved). *)
  List.iteri
    (fun i _ ->
      let c = System.client sys ~site:i () in
      match Api.get_binding sys c ~via:(System.site sys i).System.agent ~target:cls with
      | Ok b -> Alcotest.check H.loid_t "resolved" cls (Binding.loid b)
      | Error e -> Alcotest.failf "site %d: %s" i (Err.to_string e))
    (System.sites sys);
  List.iteri
    (fun i _ ->
      let v = get_stats sys ctx (System.site sys i).System.agent in
      Alcotest.(check bool)
        (Printf.sprintf "site %d forwarded class lookups" i)
        true
        (stat v "forwarded" >= 1))
    (System.sites sys)

let test_set_parent_runtime () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let agent = (System.site sys 0).System.agent in
  (* SetParent(none) then SetParent(some) round-trips. *)
  (match
     Api.call sys ctx ~dst:agent ~meth:"SetParent" ~args:[ Value.List [] ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "SetParent none: %s" (Err.to_string e));
  let other = (System.site sys 1).System.agent_address in
  match
    Api.call sys ctx ~dst:agent ~meth:"SetParent"
      ~args:[ Value.List [ Address.to_value other ] ]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "SetParent some: %s" (Err.to_string e)


(* --- Regression tests for the agent's concurrency and persistence
   fixes --- *)

module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Prng = Legion_util.Prng
module Counter = Legion_util.Counter
module Env = Legion_sec.Env
module Recorder = Legion_obs.Recorder
module C = Legion_core.Convert

(* A bare runtime (no System boot) so the test controls every object the
   agent talks to, including a scripted stand-in for LegionClass. *)
type rt_fixture = {
  sim : Engine.t;
  rt : Runtime.t;
  net : Runtime.incoming Network.t;
  hosts : Network.host_id list;
}

let make_rt_fixture ?(sites = 2) ?(hosts_per_site = 2) () =
  let sim = Engine.create () in
  let prng = Prng.create ~seed:23L in
  let registry = Counter.Registry.create () in
  let obs = Recorder.create ~clock:(fun () -> Engine.now sim) () in
  let net = Network.create ~sim ~prng:(Prng.split prng) ~obs () in
  let hosts =
    List.concat_map
      (fun s ->
        let sid = Network.add_site net ~name:(Printf.sprintf "s%d" s) in
        List.init hosts_per_site (fun i ->
            Network.add_host net ~site:sid ~name:(Printf.sprintf "s%d-h%d" s i)))
      (List.init sites (fun s -> s))
  in
  let rt = Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) ~obs () in
  { sim; rt; net; hosts }

(* Two GetBinding resolutions interleave inside one agent: the first
   request's upward call to the creator class fires only after a WAN
   round-trip to LegionClass, by which time the second request has
   already been admitted. Each upward call must carry the environment
   delegated from *its own* requester (§2.4) — a shared mutable
   environment cell leaks the second requester's Responsible Agent into
   the first resolution's upward calls. *)
let test_interleaved_resolutions_keep_envs () =
  Agent_part.register ();
  let f = make_rt_fixture () in
  let lc_loid = Loid.make ~class_id:999L ~class_specific:0L () in
  let seen = ref [] in
  let lc_handler : Runtime.handler =
   fun _ctx call k ->
    match call.Runtime.meth with
    | "LocateClass" -> k (Ok (Value.Record [ ("creator", Loid.to_value lc_loid) ]))
    | "GetBinding" -> (
        match call.Runtime.args with
        | [ av ] -> (
            match Loid.of_value av with
            | Ok target ->
                seen := (target, call.Runtime.env.Env.responsible) :: !seen;
                k
                  (Ok
                     (Binding.to_value
                        (Binding.make ~loid:target
                           ~address:
                             (Address.singleton (Address.Sim { host = 0; slot = 500 }))
                           ())))
            | Error msg -> k (Error (Err.Internal msg)))
        | _ -> k (Error (Err.Bad_args "GetBinding expects one loid")))
    | m -> k (Error (Err.No_such_method m))
  in
  (* LegionClass on the far site (WAN latency), agent and clients
     co-located: request 2 arrives ~2 ms in, request 1's upward
     GetBinding only goes out ~80 ms in. *)
  let lc_proc =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 2) ~loid:lc_loid ~kind:"class"
      ~handler:lc_handler ()
  in
  let agent_loid = Loid.make ~class_id:60L ~class_specific:1L () in
  let opr =
    Opr.make
      ~states:
        [
          ( Agent_part.unit_name,
            Agent_part.state_value ~legion_class:(Runtime.binding_of f.rt lc_proc) ()
          );
        ]
      ~kind:Well_known.kind_binding_agent
      ~units:[ Agent_part.unit_name ] ()
  in
  let agent =
    match Impl.activate f.rt ~host:(List.hd f.hosts) ~loid:agent_loid opr with
    | Ok p -> p
    | Error msg -> Alcotest.failf "activate agent: %s" msg
  in
  let client i =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 1)
      ~loid:(Loid.make ~class_id:50L ~class_specific:(Int64.of_int i) ())
      ~kind:"client"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let c1 = client 1 and c2 = client 2 in
  let cls1 = Loid.make ~class_id:100L ~class_specific:0L () in
  let cls2 = Loid.make ~class_id:101L ~class_specific:0L () in
  let results = ref [] in
  let ask client target ~delay =
    ignore
      (Engine.schedule f.sim ~delay (fun () ->
           Runtime.invoke_address
             { Runtime.rt = f.rt; self = client }
             ~address:(Runtime.address_of agent)
             ~dst:agent_loid ~meth:"GetBinding" ~args:[ Loid.to_value target ]
             ~env:(Env.of_self (Runtime.proc_loid client))
             (fun r -> results := r :: !results)))
  in
  ask c1 cls1 ~delay:0.0;
  ask c2 cls2 ~delay:0.002;
  Engine.run f.sim;
  Alcotest.(check int) "both resolutions replied" 2 (List.length !results);
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "resolution failed: %s" (Err.to_string e))
    !results;
  let responsible_for cls =
    match List.find_opt (fun (t, _) -> Loid.equal t cls) !seen with
    | Some (_, r) -> r
    | None -> Alcotest.fail "no upward GetBinding recorded for the class"
  in
  Alcotest.check H.loid_t "first resolution keeps its requester's RA"
    (Runtime.proc_loid c1) (responsible_for cls1);
  Alcotest.check H.loid_t "second resolution keeps its requester's RA"
    (Runtime.proc_loid c2) (responsible_for cls2)

(* The agent's resolution sequence, message by message (§4.1.2–4.1.4,
   §5.2.2). LegionClass, the classes and a parent agent are scripted
   processes; a network tap records every call the agent sends as
   (callee, method, argument form), and GetStats gives its
   resolved/forwarded counts. Class [c] was created by LegionClass,
   class [d] by [c]; [inst n] is an instance of [c]. *)
type scripted = {
  fx : rt_fixture;
  agent : Runtime.proc;
  sent : string list ref;  (* newest first *)
  respawn_c : unit -> unit;  (* kill [c]'s process, restart it elsewhere *)
}

let lc = Well_known.legion_class
let c = Loid.make ~class_id:100L ~class_specific:0L ()
let d = Loid.make ~class_id:101L ~class_specific:0L ()
let inst n = Loid.make ~class_id:100L ~class_specific:(Int64.of_int n) ()
let parent_loid = Loid.make ~class_id:61L ~class_specific:1L ()

let name l =
  let names =
    [ (lc, "LegionClass"); (c, "C"); (d, "D"); (Loid.wildcard, "parent") ]
  in
  match List.find_opt (fun (x, _) -> Loid.equal x l) names with
  | Some (_, n) -> n
  | None -> Loid.to_string l

(* A GetBinding or LocateClass argument: a LOID, else a binding. *)
let form v =
  match Loid.of_value v with
  | Ok l -> "loid " ^ name l
  | Error _ -> (
      match Binding.of_value v with
      | Ok b -> "binding " ^ name (Binding.loid b)
      | Error _ -> "?")

let scripted ?(with_parent = false) () =
  Agent_part.register ();
  let fx = make_rt_fixture () in
  let procs = Hashtbl.create 8 in
  let fake = Address.singleton (Address.Sim { host = 0; slot = 500 }) in
  let bind l =
    let address =
      match Hashtbl.find_opt procs l with
      | Some p -> Runtime.address_of p
      | None -> fake
    in
    Binding.to_value (Binding.make ~loid:l ~address ())
  in
  let handler : Runtime.handler =
   fun _ctx call k ->
    match (call.Runtime.meth, call.Runtime.args) with
    | "LocateClass", [ v ] ->
        let creator = if Loid.equal (Result.get_ok (Loid.of_value v)) d then c else lc in
        k (Ok (Value.Record [ ("creator", Loid.to_value creator) ]))
    | "GetBinding", [ v ] -> (
        match Loid.of_value v with
        | Ok l -> k (Ok (bind l))
        | Error _ -> k (Ok (bind (Binding.loid (Result.get_ok (Binding.of_value v))))))
    | m, _ -> k (Error (Err.No_such_method m))
  in
  let start l host =
    Hashtbl.replace procs l
      (Runtime.spawn fx.rt ~host:(List.nth fx.hosts host) ~loid:l ~kind:"class"
         ~handler ())
  in
  start lc 2;
  start c 3;
  start parent_loid 3;
  let agent_loid = Loid.make ~class_id:60L ~class_specific:1L () in
  let parent =
    if with_parent then Some (Runtime.address_of (Hashtbl.find procs parent_loid))
    else None
  in
  let opr =
    Opr.make
      ~states:
        [
          ( Agent_part.unit_name,
            Agent_part.state_value ?parent
              ~legion_class:(Runtime.binding_of fx.rt (Hashtbl.find procs lc))
              () );
        ]
      ~kind:Well_known.kind_binding_agent
      ~units:[ Agent_part.unit_name ] ()
  in
  let agent =
    match Impl.activate fx.rt ~host:(List.hd fx.hosts) ~loid:agent_loid opr with
    | Ok p -> p
    | Error msg -> Alcotest.failf "activate agent: %s" msg
  in
  let sent = ref [] in
  Network.set_tap fx.net
    (Some
       (fun ~src:_ ~dst:_ v ->
         match Runtime.codec.Network.of_value v with
         | Runtime.In_call { src_loid; dst_loid; call; _ }
           when Loid.equal src_loid agent_loid ->
             let arg =
               match call.Runtime.args with [ a ] -> form a | _ -> "?"
             in
             sent :=
               Printf.sprintf "%s %s(%s)" (name dst_loid) call.Runtime.meth arg
               :: !sent
         | _ -> ()));
  let respawn_c () =
    Runtime.kill fx.rt (Hashtbl.find procs c);
    start c 1
  in
  { fx; agent; sent; respawn_c }

(* A client on host 1 asks the agent, and the simulation runs dry. The
   upward calls this caused are returned, oldest first. *)
let ask t arg =
  let client =
    Runtime.spawn t.fx.rt ~host:(List.nth t.fx.hosts 1)
      ~loid:(Loid.make ~class_id:50L ~class_specific:1L ())
      ~kind:"client"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let result = ref None in
  let call meth args =
    Runtime.invoke_address
      { Runtime.rt = t.fx.rt; self = client }
      ~address:(Runtime.address_of t.agent) ~dst:Loid.wildcard ~meth ~args
      ~env:(Env.of_self (Runtime.proc_loid client))
      (fun r -> result := Some r);
    Engine.run t.fx.sim;
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> Alcotest.failf "%s: %s" meth (Err.to_string e)
    | None -> Alcotest.failf "%s: no reply" meth
  in
  t.sent := [];
  let b = call "GetBinding" [ arg ] in
  let seq = List.rev !(t.sent) in
  let stats = call "GetStats" [] in
  Runtime.kill t.fx.rt client;
  let counts = (stat stats "resolved", stat stats "forwarded") in
  (Result.get_ok (Binding.of_value b), seq, counts)

let check_sequence what expected (_, seq, _) =
  Alcotest.(check (list string)) what expected seq

let check_stats what expected (_, _, stats) =
  Alcotest.(check (pair int int)) (what ^ ": resolved, forwarded") expected stats

let test_resolution_sequence () =
  (* A cold instance lookup: the class's binding first, through
     LegionClass, then the class. *)
  let t = scripted () in
  let r = ask t (Loid.to_value (inst 1)) in
  check_sequence "cold instance"
    [
      "LegionClass LocateClass(loid C)";
      "LegionClass GetBinding(loid C)";
      "C GetBinding(loid L64.1)";
    ]
    r;
  check_stats "cold instance" (1, 0) r;
  (* A class lookup: LocateClass, then the creator, whose binding is now
     cached. *)
  let r = ask t (Loid.to_value d) in
  check_sequence "class" [ "LegionClass LocateClass(loid D)"; "C GetBinding(loid D)" ] r;
  check_stats "class" (2, 0) r;
  (* A refresh: the binding form reaches the class. *)
  let b1, _, _ = ask t (Loid.to_value (inst 1)) in
  let r = ask t (Binding.to_value b1) in
  check_sequence "refresh" [ "C GetBinding(binding L64.1)" ] r;
  check_stats "refresh" (3, 0) r;
  (* A dead class object: the delivery failure drops the cached binding
     of C, C is refreshed through its creator, and the lookup is asked
     again exactly once. The next lookup goes straight to the new C. *)
  t.respawn_c ();
  let r = ask t (Loid.to_value (inst 2)) in
  check_sequence "dead class"
    [
      "C GetBinding(loid L64.2)";
      "LegionClass LocateClass(loid C)";
      "LegionClass GetBinding(binding C)";
      "C GetBinding(loid L64.2)";
    ]
    r;
  check_stats "dead class" (4, 0) r;
  let r = ask t (Loid.to_value (inst 3)) in
  check_sequence "after the repair" [ "C GetBinding(loid L64.3)" ] r

let test_parent_sequence () =
  (* With a parent: an instance lookup is resolved here, class bindings
     included; a class lookup is forwarded. *)
  let t = scripted ~with_parent:true () in
  let r = ask t (Loid.to_value (inst 1)) in
  check_sequence "instance, parent set"
    [
      "LegionClass LocateClass(loid C)";
      "LegionClass GetBinding(loid C)";
      "C GetBinding(loid L64.1)";
    ]
    r;
  check_stats "instance, parent set" (1, 0) r;
  let r = ask t (Loid.to_value d) in
  check_sequence "class, parent set" [ "parent GetBinding(loid D)" ] r;
  check_stats "class, parent set" (1, 1) r

(* An unconfigured agent must save an *absent* LegionClass binding — not
   a fabricated host-0 placeholder — and a configured one must
   round-trip its binding exactly. *)
let test_save_restore_honest () =
  Agent_part.register ();
  let f = make_rt_fixture () in
  let proc =
    Runtime.spawn f.rt ~host:(List.hd f.hosts)
      ~loid:(Loid.make ~class_id:60L ~class_specific:9L ())
      ~kind:"binding_agent"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "inert")))
      ()
  in
  let ctx = { Runtime.rt = f.rt; self = proc } in
  let opt_lc v =
    match C.opt_field v "lc" Binding.of_value with
    | Ok o -> o
    | Error msg -> Alcotest.failf "bad lc field: %s" msg
  in
  let p1 = Agent_part.factory ctx in
  let v1 = p1.Impl.save () in
  (match opt_lc v1 with
  | None -> ()
  | Some b ->
      Alcotest.failf "unconfigured agent fabricated a LegionClass binding: %s"
        (Value.to_string (Binding.to_value b)));
  let p2 = Agent_part.factory ctx in
  (match p2.Impl.restore v1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restore: %s" msg);
  Alcotest.(check string) "save/restore/save is a fixed point"
    (Value.to_string v1)
    (Value.to_string (p2.Impl.save ()));
  let lc =
    Binding.make
      ~loid:(Loid.make ~class_id:1L ~class_specific:0L ())
      ~address:(Address.singleton (Address.Sim { host = 0; slot = 3 }))
      ()
  in
  let p3 = Agent_part.factory ctx in
  (match p3.Impl.restore (Agent_part.state_value ~capacity:8 ~legion_class:lc ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restore configured: %s" msg);
  let v3 = p3.Impl.save () in
  (match opt_lc v3 with
  | Some b ->
      Alcotest.(check bool) "LegionClass binding round-trips" true
        (Binding.equal lc b)
  | None -> Alcotest.fail "configured LegionClass binding lost on save");
  match C.opt_int_field v3 "cap" with
  | Ok (Some 8) -> ()
  | _ -> Alcotest.fail "cache capacity lost on save"

let () =
  Alcotest.run "binding"
    [
      ( "resolution",
        [
          Alcotest.test_case "resolves an instance" `Quick test_agent_resolves_instance;
          Alcotest.test_case "resolves a class via pairs" `Quick
            test_agent_resolves_class;
          Alcotest.test_case "caches bindings" `Quick test_agent_caches;
          Alcotest.test_case "a warm answer keeps no record" `Quick
            test_warm_answer_words;
          Alcotest.test_case "AddBinding / InvalidateBinding" `Quick
            test_add_and_invalidate_binding;
          Alcotest.test_case "GetBinding(binding) refreshes" `Quick
            test_get_binding_refresh_form;
        ] );
      ( "tree",
        [
          Alcotest.test_case "leaf forwards class lookups" `Quick test_tree_forwarding;
          Alcotest.test_case "Agent_tree builder" `Quick test_agent_tree_builder;
          Alcotest.test_case "arrange_agent_tree over site agents" `Quick
            test_arrange_agent_tree;
          Alcotest.test_case "SetParent" `Quick test_set_parent_runtime;
        ] );
      ( "state",
        [
          Alcotest.test_case "interleaved resolutions keep their environments"
            `Quick test_interleaved_resolutions_keep_envs;
          Alcotest.test_case "save/restore is honest about configuration" `Quick
            test_save_restore_honest;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "cold, class, refresh and dead-class lookups" `Quick
            test_resolution_sequence;
          Alcotest.test_case "a parent gets class lookups only" `Quick
            test_parent_sequence;
        ] );
    ]
