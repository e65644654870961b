module Prng = Legion_util.Prng
module Counter = Legion_util.Counter
module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Interface = Legion_idl.Interface
module Parser = Legion_idl.Parser
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Opr = Legion_core.Opr
module Well_known = Legion_core.Well_known
module Class_part = Legion_core.Class_part
module Object_part = Legion_core.Object_part
module Metaclass_part = Legion_core.Metaclass_part
module Agent_part = Legion_binding.Agent_part
module Host_part = Legion_host.Host_part
module Magistrate_part = Legion_jur.Magistrate_part
module Sched_part = Legion_sched.Sched_part
module Context_part = Legion_ctx.Context_part
module Persistent = Legion_store.Persistent
module Disk = Legion_store.Disk

type site = {
  site_id : Network.site_id;
  site_name : string;
  net_hosts : Network.host_id list;
  host_objects : Loid.t list;
  magistrate : Loid.t;
  agent : Loid.t;
  agent_address : Address.t;
  storage : Persistent.t;
}

type t = {
  sim : Engine.t;
  net : Runtime.incoming Network.t;
  rt : Runtime.t;
  registry : Counter.Registry.r;
  prng : Prng.t;
  obs : Legion_obs.Recorder.t;
  sites : site list;
  legion_class_binding : Binding.t;
  mutable next_ext : int64;
}

let sim t = t.sim
let net t = t.net
let rt t = t.rt
let registry t = t.registry
let prng t = t.prng
let obs t = t.obs
let sites t = t.sites
let site t i = List.nth t.sites i
let magistrates t = List.map (fun s -> s.magistrate) t.sites
let host_objects t = List.concat_map (fun s -> s.host_objects) t.sites

(* Bootstrap-assigned instance LOIDs live far above class-allocated
   sequence numbers (which start at 1) so the two can never collide. *)
let ext_base = 0x1_0000_0000L

let fresh_instance_loid t ~of_class =
  let spec = Int64.add ext_base t.next_ext in
  t.next_ext <- Int64.add t.next_ext 1L;
  Loid.make ~class_id:(Loid.class_id of_class) ~class_specific:spec ()

let register_all_units () =
  Object_part.register ();
  Legion_core.Typecheck_part.register ();
  Legion_core.Class_part.register ();
  Metaclass_part.register ();
  Agent_part.register ();
  Host_part.register ();
  Magistrate_part.register ();
  Sched_part.register ();
  Context_part.register ();
  Legion_txn.Participant.register ();
  Legion_txn.Coordinator.register ()

(* IDL for the core interfaces — stored in the core class objects and
   served by GetInterface, exercising the same parser user classes use. *)
let object_idl =
  "interface LegionObject {\n\
  \  MayI(meth: str): bool;\n\
  \  Iam(): loid;\n\
  \  Ping();\n\
  \  SaveState(): any;\n\
  \  RestoreState(state: any);\n\
  \  GetMethodNames(): list<str>;\n\
  \  GetInfo(): str;\n\
  \  SetPolicy(policy: any);\n\
  \  GetPolicy(): any;\n\
   }"

let class_idl =
  "interface LegionClass {\n\
  \  Create(init: any, hints: any): any;\n\
  \  Derive(spec: any): any;\n\
  \  Clone(): any;\n\
  \  InheritFrom(base: loid);\n\
  \  GetInheritInfo(): any;\n\
  \  GetInterface(): any;\n\
  \  GetBinding(target: any): binding;\n\
  \  Delete(obj: loid);\n\
  \  RegisterInstance(obj: loid, addr: any);\n\
  \  NotifyAddress(obj: loid, addr: any);\n\
  \  NotifyMagistrates(obj: loid, add: list<loid>, remove: list<loid>);\n\
  \  NotifyDead(obj: loid);\n\
  \  SetDefaults(defaults: any);\n\
  \  SetBindingPolicy(policy: any);\n\
  \  StartElastic(period: float, until: float);\n\
  \  ListInstances(): list<loid>;\n\
  \  ListSubclasses(): list<loid>;\n\
  \  GetClassInfo(): any;\n\
   }"

let host_idl =
  "interface LegionHost {\n\
  \  Activate(obj: loid, opr: blob): any;\n\
  \  Deactivate(obj: loid): blob;\n\
  \  Kill(obj: loid);\n\
  \  SetCPUload(n: int);\n\
  \  SetMemoryUsage(n: int);\n\
  \  GetState(): any;\n\
  \  IsAlive(obj: loid): bool;\n\
  \  IdleProcesses(threshold: float): list<loid>;\n\
  \  ListProcesses(): list<loid>;\n\
  \  Reap(): int;\n\
   }"

let magistrate_idl =
  "interface LegionMagistrate {\n\
  \  Activate(obj: loid, hints: any): binding;\n\
  \  Deactivate(obj: loid);\n\
  \  Delete(obj: loid);\n\
  \  Copy(obj: loid, to: loid);\n\
  \  Move(obj: loid, to: loid);\n\
  \  SweepIdle(threshold: float): int;\n\
  \  StoreObject(obj: loid, opr: blob);\n\
  \  AddHost(host: loid);\n\
  \  RemoveHost(host: loid);\n\
  \  SetActivationPolicy(policy: any);\n\
  \  SweepCheckpoint(): int;\n\
  \  StartCheckpointing(period: float, until: float);\n\
  \  StartHeartbeat(period: float, threshold: int, until: float);\n\
  \  AdoptObject(obj: loid, opa: any);\n\
  \  TransferObjects(to: loid, max: int): int;\n\
  \  ListObjects(): list<loid>;\n\
  \  GetJurisdictionInfo(): any;\n\
   }"

let agent_idl =
  "interface LegionBindingAgent {\n\
  \  GetBinding(target: any): binding;\n\
  \  InvalidateBinding(target: any);\n\
  \  AddBinding(b: binding);\n\
  \  SetParent(parent: any);\n\
  \  GetStats(): any;\n\
  \  SetPrice(price: int);\n\
   }"

let parse_idl src =
  match Parser.interface src with
  | Ok i -> i
  | Error e -> failwith (Format.asprintf "bootstrap idl: %a" Parser.pp_error e)

let abstract_flags =
  { Class_part.abstract = true; private_ = false; fixed = false }

(* Start an infrastructure object "from the shell" (§4.2.1): an OPR of
   one implementation unit plus LegionObject's, activated on [host]. *)
let start rt ~host ~loid ?binding_agent ~kind (unit_name, state) =
  let opr =
    Opr.make ~states:[ (unit_name, state) ] ?binding_agent ~kind
      ~units:[ unit_name; Well_known.unit_object ]
      ()
  in
  match Impl.activate rt ~host ~loid opr with
  | Ok proc -> proc
  | Error msg ->
      failwith
        (Printf.sprintf "cannot start %s %s: %s" kind (Loid.to_string loid) msg)

let boot ?(seed = 42L) ?latency ?rt_config ?agent_cache_capacity
    ?object_cache_capacity ?trace_capacity ~sites:site_spec () =
  if site_spec = [] then invalid_arg "System.boot: no sites";
  register_all_units ();
  let sim = Engine.create () in
  let prng = Prng.create ~seed in
  let registry = Counter.Registry.create () in
  (* One recorder shared by the network and the runtime: the trace is a
     single stream ordered by virtual time. *)
  let obs =
    Legion_obs.Recorder.create ?capacity:trace_capacity
      ~clock:(fun () -> Engine.now sim)
      ()
  in
  let net = Network.create ~sim ~prng:(Prng.split prng) ?latency ~obs () in
  let rt =
    Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) ?config:rt_config
      ~obs ()
  in
  (* Topology. *)
  let site_hosts =
    List.map
      (fun (name, n_hosts) ->
        if n_hosts <= 0 then invalid_arg "System.boot: site needs >= 1 host";
        let sid = Network.add_site net ~name in
        let hosts =
          List.init n_hosts (fun i ->
              Network.add_host net ~site:sid ~name:(Printf.sprintf "%s-h%d" name i))
        in
        (name, sid, hosts))
      site_spec
  in
  let host0 =
    match site_hosts with (_, _, h :: _) :: _ -> h | _ -> assert false
  in

  (* --- Core class objects, spawned directly ("from the shell"). --- *)
  let spawn_core_class ~loid ~iface ~instance_units ~instance_kind
      ?instance_cache_capacity ~flags ~host ~ba () =
    let state =
      Class_part.init_state ~interface:iface ~instance_units ~instance_kind
        ?instance_cache_capacity ~flags ~class_id:(Loid.class_id loid) ()
    in
    let units =
      if Loid.equal loid Well_known.legion_class then
        [ Well_known.unit_metaclass; Well_known.unit_class; Well_known.unit_object ]
      else [ Well_known.unit_class; Well_known.unit_object ]
    in
    let opr =
      Opr.make
        ~states:[ (Well_known.unit_class, state) ]
        ?binding_agent:ba ~kind:Well_known.kind_class ~units ()
    in
    match Impl.activate rt ~host ~loid opr with
    | Ok proc -> proc
    | Error msg ->
        failwith (Printf.sprintf "bootstrap: cannot start %s: %s"
                    (Loid.to_string loid) msg)
  in

  (* LegionClass first: everything else's resolution terminates at it. *)
  let legion_class_proc =
    spawn_core_class ~loid:Well_known.legion_class ~iface:(parse_idl class_idl)
      ~instance_units:[ Well_known.unit_class; Well_known.unit_object ]
      ~instance_kind:Well_known.kind_class ~flags:abstract_flags ~host:host0
      ~ba:None ()
  in
  let legion_class_binding = Runtime.binding_of rt legion_class_proc in
  (* Bindings minted during bootstrap must not expire. *)
  let legion_class_binding = Binding.with_expiry legion_class_binding None in

  (* --- Per-site Binding Agents (flat by default). --- *)
  let next_ext = ref 0L in
  let fresh of_class =
    let spec = Int64.add ext_base !next_ext in
    next_ext := Int64.add !next_ext 1L;
    Loid.make ~class_id:(Loid.class_id of_class) ~class_specific:spec ()
  in
  let agents =
    List.map
      (fun (_name, _sid, hosts) ->
        let loid = fresh Well_known.legion_binding_agent in
        let proc =
          start rt ~host:(List.hd hosts) ~loid
            ~kind:Well_known.kind_binding_agent
            ( Agent_part.unit_name,
              Agent_part.state_value ?capacity:agent_cache_capacity
                ~legion_class:legion_class_binding () )
        in
        (loid, proc, Runtime.address_of proc))
      site_hosts
  in
  let agent_address_of_site i =
    let _, _, addr = List.nth agents i in
    addr
  in

  (* Give the core class objects a Binding Agent (site 0's). *)
  Runtime.set_binding_agent legion_class_proc (Some (agent_address_of_site 0));

  let core_rest =
    [
      (Well_known.legion_object, object_idl, [ Well_known.unit_object ],
       Well_known.kind_app);
      (Well_known.legion_host, host_idl,
       [ Host_part.unit_name; Well_known.unit_object ], Well_known.kind_host);
      (Well_known.legion_magistrate, magistrate_idl,
       [ Magistrate_part.unit_name; Well_known.unit_object ],
       Well_known.kind_magistrate);
      (Well_known.legion_binding_agent, agent_idl,
       [ Agent_part.unit_name; Well_known.unit_object ],
       Well_known.kind_binding_agent);
    ]
  in
  let core_procs =
    (Well_known.legion_class, legion_class_proc)
    :: List.map
         (fun (loid, idl, instance_units, instance_kind) ->
           let proc =
             spawn_core_class ~loid ~iface:(parse_idl idl) ~instance_units
               ~instance_kind ?instance_cache_capacity:object_cache_capacity
               ~flags:abstract_flags ~host:host0
               ~ba:(Some (agent_address_of_site 0)) ()
           in
           (loid, proc))
         core_rest
  in

  (* --- Host Objects: one per simulated host. --- *)
  let sites_hosts_objs =
    List.mapi
      (fun i (name, sid, hosts) ->
        let agent_addr = agent_address_of_site i in
        let host_objs =
          List.map
            (fun h ->
              let loid = fresh Well_known.legion_host in
              ( loid,
                start rt ~host:h ~loid ~binding_agent:agent_addr
                  ~kind:Well_known.kind_host
                  (Host_part.unit_name, Host_part.state_value ()) ))
            hosts
        in
        (name, sid, hosts, host_objs))
      site_hosts
  in

  (* --- Per-site Jurisdictions: storage + Magistrate. --- *)
  let site_mags =
    List.mapi
      (fun i (name, sid, hosts, host_objs) ->
        let storage =
          Persistent.create
            ~disks:
              [
                Disk.create ~name:(name ^ "-disk0");
                Disk.create ~name:(name ^ "-disk1");
              ]
            ()
        in
        Magistrate_part.register_storage name storage;
        let mag_loid = fresh Well_known.legion_magistrate in
        let agent_loid, _, agent_address = List.nth agents i in
        let mag =
          start rt ~host:(List.hd hosts) ~loid:mag_loid
            ~binding_agent:agent_address ~kind:Well_known.kind_magistrate
            ( Magistrate_part.unit_name,
              Magistrate_part.state_value ~hosts:(List.map fst host_objs)
                ~jurisdiction:name () )
        in
        ( {
            site_id = sid;
            site_name = name;
            net_hosts = hosts;
            host_objects = List.map fst host_objs;
            magistrate = mag_loid;
            agent = agent_loid;
            agent_address;
            storage;
          },
          mag ))
      sites_hosts_objs
  in
  let sites = List.map fst site_mags in

  let t =
    {
      sim;
      net;
      rt;
      registry;
      prng;
      obs;
      sites;
      legion_class_binding;
      next_ext = !next_ext;
    }
  in

  (* --- Registration: the externally-started objects "contact their
     class" (§4.2.1), and classes learn where to place objects. --- *)
  let boot_client_loid =
    Loid.make ~class_id:(Loid.class_id Well_known.legion_object)
      ~class_specific:0xB007L ()
  in
  let boot_proc =
    Runtime.spawn rt ~host:host0 ~loid:boot_client_loid
      ~kind:Well_known.kind_client
      ~binding_agent:(agent_address_of_site 0)
      ~handler:(fun _ _ k -> k (Error (Err.Refused "bootstrap client")))
      ()
  in
  let ctx = { Runtime.rt; self = boot_proc } in
  let failures = ref [] in
  let expect label kont =
    kont (fun r ->
        match r with
        | Ok _ -> ()
        | Error e ->
            failures := Printf.sprintf "%s: %s" label (Err.to_string e) :: !failures)
  in
  let env = Env.of_self boot_client_loid in
  let call dst meth args k =
    Runtime.invoke ctx ~dst ~meth ~args ~env k
  in
  (* Core classes register with LegionClass (they are its subclasses in
     the kind-of graph). *)
  List.iter
    (fun (loid, proc) ->
      expect
        (Printf.sprintf "register core class %s" (Loid.to_string loid))
        (call Well_known.legion_class "RegisterInstance"
           [ Loid.to_value loid; Address.to_value (Runtime.address_of proc) ]))
    core_procs;
  (* Host objects, magistrates and agents register with their classes. *)
  List.iter2
    (fun (s, mag) (_, _, _, host_objs) ->
      List.iter
        (fun (loid, proc) ->
          expect "register host object"
            (call Well_known.legion_host "RegisterInstance"
               [ Loid.to_value loid; Address.to_value (Runtime.address_of proc) ]))
        host_objs;
      expect "register magistrate"
        (call Well_known.legion_magistrate "RegisterInstance"
           [ Loid.to_value s.magistrate; Address.to_value (Runtime.address_of mag) ]);
      expect "register binding agent"
        (call Well_known.legion_binding_agent "RegisterInstance"
           [ Loid.to_value s.agent; Address.to_value s.agent_address ]))
    site_mags sites_hosts_objs;
  (* Default placement for new classes and instances: all magistrates. *)
  let defaults =
    Value.Record
      [ ("magistrates", Value.List (List.map Loid.to_value (magistrates t))) ]
  in
  List.iter
    (fun (loid, _) -> expect "set defaults" (call loid "SetDefaults" [ defaults ]))
    core_procs;
  Engine.run sim;
  (match !failures with
  | [] -> ()
  | fs -> failwith ("bootstrap registration failed: " ^ String.concat "; " fs));
  Runtime.kill rt boot_proc;
  t

let infra_hosts t = List.map (fun s -> List.hd s.net_hosts) t.sites

let client t ?(site = 0) () =
  let s = List.nth t.sites site in
  let loid = fresh_instance_loid t ~of_class:Well_known.legion_object in
  let proc =
    Runtime.spawn t.rt
      ~host:(List.hd s.net_hosts)
      ~loid ~kind:Well_known.kind_client
      ~binding_agent:s.agent_address
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client object")))
      ()
  in
  { Runtime.rt = t.rt; self = proc }

(* Retire an operator action's client and fail loudly on the errors its
   calls reported. *)
let retire t ctx ~what failures =
  Runtime.kill t.rt ctx.Runtime.self;
  if failures <> [] then failwith (what ^ ": " ^ String.concat "; " failures)

(* An operator action: [act] issues its calls from a fresh client on
   [site], reporting each error through its second argument; the calls
   run to quiescence before the client is retired. *)
let operate t ?site ~what act =
  let ctx = client t ?site () in
  let failures = ref [] in
  act ctx (fun msg -> failures := msg :: !failures);
  Engine.run t.sim;
  retire t ctx ~what !failures

let check fail = function Ok _ -> () | Error e -> fail (Err.to_string e)

let start_agent t ?parent host =
  let loid = fresh_instance_loid t ~of_class:Well_known.legion_binding_agent in
  start t.rt ~host ~loid ~kind:Well_known.kind_binding_agent
    ( Agent_part.unit_name,
      Agent_part.state_value ?parent ~legion_class:t.legion_class_binding () )

let start_magistrate t ~site:site_idx ~name ~hosts =
  let s = List.nth t.sites site_idx in
  (* Shared storage (§2.2 non-disjoint Jurisdictions): OPAs stay valid,
     so a transfer moves responsibility, not bytes. *)
  Magistrate_part.register_storage name s.storage;
  let loid = fresh_instance_loid t ~of_class:Well_known.legion_magistrate in
  start t.rt
    ~host:(List.nth s.net_hosts (List.length s.net_hosts - 1))
    ~loid ~binding_agent:s.agent_address ~kind:Well_known.kind_magistrate
    ( Magistrate_part.unit_name,
      Magistrate_part.state_value ~hosts ~jurisdiction:name () )

let grow_site t ~site:site_idx ?host_class ~n () =
  let s = List.nth t.sites site_idx in
  let host_class = Option.value ~default:Well_known.legion_host host_class in
  (* New simulated hosts join the site... *)
  let new_hosts =
    List.init n (fun i ->
        Network.add_host t.net ~site:s.site_id
          ~name:(Printf.sprintf "%s-grown%Ld-%d" s.site_name t.next_ext i))
  in
  (* ...each starts a Host Object "from the shell"... *)
  let host_objs =
    List.map
      (fun h ->
        let loid = fresh_instance_loid t ~of_class:host_class in
        ( loid,
          start t.rt ~host:h ~loid ~binding_agent:s.agent_address
            ~kind:Well_known.kind_host
            (Host_part.unit_name, Host_part.state_value ()) ))
      new_hosts
  in
  (* ...and contacts its class and the Jurisdiction's Magistrate. *)
  operate t ~site:site_idx ~what:"grow_site" (fun ctx fail ->
      List.iter
        (fun (loid, hproc) ->
          Runtime.invoke ctx ~dst:host_class ~meth:"RegisterInstance"
            ~args:
              [ Loid.to_value loid; Address.to_value (Runtime.address_of hproc) ]
            (function
              | Ok _ ->
                  Runtime.invoke ctx ~dst:s.magistrate ~meth:"AddHost"
                    ~args:[ Loid.to_value loid ] (check fail)
              | Error e -> fail (Err.to_string e)))
        host_objs);
  List.map fst host_objs

let wire_agent_tree t ~fanout k =
  if fanout <= 0 then invalid_arg "System.wire_agent_tree: fanout";
  let sites = Array.of_list t.sites in
  let n_roots = (Array.length sites + fanout - 1) / fanout in
  let roots =
    Array.init n_roots (fun i ->
        start_agent t (List.hd sites.(i * fanout).net_hosts))
  in
  (* Point every site agent at its root via SetParent. *)
  let ctx = client t () in
  let pending = ref (Array.length sites) and failures = ref [] in
  Array.iteri
    (fun i s ->
      Runtime.invoke_address ctx ~address:s.agent_address
        ~dst:Loid.wildcard
        ~meth:"SetParent"
        ~args:
          [ Value.List [ Address.to_value (Runtime.address_of roots.(i / fanout)) ] ]
        ~env:(Env.of_self (Runtime.proc_loid ctx.Runtime.self))
        (fun r ->
          check (fun msg -> failures := msg :: !failures) r;
          decr pending;
          if !pending = 0 then begin
            Runtime.kill t.rt ctx.Runtime.self;
            k !failures
          end))
    sites

let arrange_agent_tree t ~fanout =
  let failures = ref [] in
  wire_agent_tree t ~fanout (fun fs -> failures := fs);
  Engine.run t.sim;
  if !failures <> [] then
    failwith ("arrange_agent_tree: " ^ String.concat "; " !failures)

let split_jurisdiction t ~site:site_idx =
  let s = List.nth t.sites site_idx in
  let n_hosts = List.length s.host_objects in
  let mag =
    start_magistrate t ~site:site_idx
      ~name:(Printf.sprintf "%s.split%Ld" s.site_name t.next_ext)
      ~hosts:(List.filteri (fun i _ -> i >= n_hosts / 2) s.host_objects)
  in
  let mag_loid = Runtime.proc_loid mag in
  (* Register the new magistrate and transfer half the objects. *)
  let transferred = ref (-1) in
  operate t ~site:site_idx ~what:"split_jurisdiction" (fun ctx fail ->
      Runtime.invoke ctx ~dst:Well_known.legion_magistrate
        ~meth:"RegisterInstance"
        ~args:
          [ Loid.to_value mag_loid; Address.to_value (Runtime.address_of mag) ]
        (function
          | Error e -> fail (Err.to_string e)
          | Ok _ ->
              (* Count, then transfer half. *)
              Runtime.invoke ctx ~dst:s.magistrate ~meth:"ListObjects" ~args:[]
                (function
                  | Error e -> fail (Err.to_string e)
                  | Ok (Value.List objs) ->
                      let half = (List.length objs + 1) / 2 in
                      Runtime.invoke ctx ~dst:s.magistrate ~meth:"TransferObjects"
                        ~args:[ Loid.to_value mag_loid; Value.Int half ]
                        (function
                          | Ok (Value.Int n) -> transferred := n
                          | Ok _ -> fail "bad TransferObjects reply"
                          | Error e -> fail (Err.to_string e))
                  | Ok _ -> fail "bad ListObjects reply")));
  if !transferred < 0 then failwith "split_jurisdiction: transfer did not complete";
  mag_loid

let checkpoint_all t =
  let swept = ref 0 in
  operate t ~what:"checkpoint_all" (fun ctx _ ->
      List.iter
        (fun s ->
          Runtime.invoke ctx ~dst:s.magistrate ~meth:"SweepIdle"
            ~args:[ Value.Float 0.0 ]
            (function
              | Ok (Value.Int n) -> swept := !swept + n
              | Ok _ | Error _ -> ()))
        t.sites);
  !swept

let enable_recovery t ?(checkpoint_period = 1.0) ?(heartbeat_period = 0.25)
    ?(threshold = 3) ~until () =
  let ctx = client t () in
  let pending = ref 0 in
  let failures = ref [] in
  let arm meth args s =
    incr pending;
    Runtime.invoke ctx ~dst:s.magistrate ~meth ~args (fun r ->
        decr pending;
        check (fun msg -> failures := msg :: !failures) r)
  in
  List.iter
    (fun s ->
      arm "StartCheckpointing"
        [ Value.Float checkpoint_period; Value.Float until ]
        s;
      arm "StartHeartbeat"
        [ Value.Float heartbeat_period; Value.Int threshold; Value.Float until ]
        s)
    t.sites;
  (* Drive only until the Start* replies land: a plain [Engine.run] would
     simulate the whole recovery horizon because the magistrate loops keep
     scheduling future beats up to [until]. *)
  let budget = ref 100_000 in
  while !pending > 0 && !budget > 0 && Engine.step t.sim do
    decr budget
  done;
  retire t ctx ~what:"enable_recovery" !failures;
  if !pending > 0 then failwith "enable_recovery: magistrates did not reply"

let run t = Engine.run t.sim

let run_for t dt =
  (* Anchor the horizon with a no-op event so the clock advances even
     when the queue drains early (e.g. waiting out an idle period). *)
  let target = Engine.now t.sim +. dt in
  ignore (Engine.schedule_at t.sim ~time:target (fun () -> ()));
  Engine.run ~until:target t.sim
let now t = Engine.now t.sim
