(* Tests for the object runtime: process lifecycle, the RPC protocol,
   address semantics, timeouts, and the stale-binding machinery. *)

module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err

let loid i = Loid.make ~class_id:50L ~class_specific:(Int64.of_int i) ()

type fixture = {
  sim : Engine.t;
  rt : Runtime.t;
  net : Runtime.incoming Network.t;
  hosts : int list;
}

let make_fixture ?config ?(hosts_per_site = 2) ?(sites = 2) () =
  let sim = Engine.create () in
  let prng = Prng.create ~seed:1L in
  let registry = Counter.Registry.create () in
  let net = Network.create ~sim ~prng:(Prng.split prng) () in
  let hosts =
    List.concat_map
      (fun s ->
        let sid = Network.add_site net ~name:(Printf.sprintf "s%d" s) in
        List.init hosts_per_site (fun i ->
            Network.add_host net ~site:sid ~name:(Printf.sprintf "s%d-h%d" s i)))
      (List.init sites (fun s -> s))
  in
  let rt = Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) ?config () in
  { sim; rt; net; hosts }

(* An echo object: replies with its argument; "Fail" replies an error;
   "Silent" never replies (for timeout tests). *)
let echo_handler : Runtime.handler =
 fun _ctx call k ->
  match call.Runtime.meth with
  | "Echo" -> k (Ok (Value.List call.Runtime.args))
  | "Fail" -> k (Error (Err.Refused "no"))
  | "Silent" -> ()
  | m -> k (Error (Err.No_such_method m))

let spawn_echo f ~host ~id =
  Runtime.spawn f.rt ~host ~loid:(loid id) ~kind:"app" ~handler:echo_handler ()

let spawn_client f ~host ~id =
  Runtime.spawn f.rt ~host ~loid:(loid id) ~kind:"client"
    ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
    ()

let sync f start =
  let r = ref None in
  start (fun x -> r := Some x);
  Engine.run f.sim;
  match !r with Some x -> x | None -> Alcotest.fail "no reply before quiescence"

let call f ctx ~dst_proc ~meth ~args =
  sync f (fun k ->
      Runtime.invoke_address ctx
        ~address:(Runtime.address_of dst_proc)
        ~dst:(Runtime.proc_loid dst_proc) ~meth ~args
        ~env:(Env.of_self (Runtime.proc_loid ctx.Runtime.self))
        k)

let test_spawn_and_echo () =
  let f = make_fixture () in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  (match call f ctx ~dst_proc:server ~meth:"Echo" ~args:[ Value.Int 42 ] with
  | Ok (Value.List [ Value.Int 42 ]) -> ()
  | Ok v -> Alcotest.failf "bad echo: %s" (Value.to_string v)
  | Error e -> Alcotest.failf "echo failed: %s" (Err.to_string e));
  Alcotest.(check int) "server counted one request" 1 (Runtime.requests_of server);
  Alcotest.(check int) "runtime delivered one call" 1
    (Runtime.total_calls_delivered f.rt)

let test_error_reply () =
  let f = make_fixture () in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  match call f ctx ~dst_proc:server ~meth:"Fail" ~args:[] with
  | Error (Err.Refused "no") -> ()
  | r ->
      Alcotest.failf "expected refusal, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e)

let test_timeout () =
  let f = make_fixture ~config:{ Runtime.default_config with call_timeout = 0.5 } () in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  (match call f ctx ~dst_proc:server ~meth:"Silent" ~args:[] with
  | Error Err.Timeout -> ()
  | r ->
      Alcotest.failf "expected timeout, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e));
  Alcotest.(check bool) "timed out at configured deadline" true
    (Engine.now f.sim >= 0.5)

let test_kill_and_no_such_object () =
  let f = make_fixture () in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  Runtime.kill f.rt server;
  Alcotest.(check bool) "not live" false (Runtime.is_live server);
  Alcotest.(check bool) "no placements" true
    (Runtime.placements f.rt (loid 1) = []);
  match call f ctx ~dst_proc:server ~meth:"Echo" ~args:[] with
  | Error Err.No_such_object -> ()
  | r ->
      Alcotest.failf "expected no_such_object, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e)

let test_loid_mismatch_rejected () =
  (* A message routed to the right slot but naming a different LOID must
     be rejected: the slot was reused by another object. *)
  let f = make_fixture () in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let wrong = loid 99 in
  match
    sync f (fun k ->
        Runtime.invoke_address ctx ~address:(Runtime.address_of server) ~dst:wrong
          ~meth:"Echo" ~args:[] ~env:(Env.of_self (loid 2)) k)
  with
  | Error Err.No_such_object -> ()
  | _ -> Alcotest.fail "mismatched loid accepted"

let test_replication_all_semantics () =
  let f = make_fixture () in
  let r1 = spawn_echo f ~host:(List.nth f.hosts 0) ~id:1 in
  let r2 =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 2) ~loid:(loid 1) ~kind:"app"
      ~handler:echo_handler ()
  in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let address =
    Address.make ~semantic:Address.All
      [ Runtime.element_of r1; Runtime.element_of r2 ]
  in
  (* Both replicas receive the call; the first reply wins. *)
  (match
     sync f (fun k ->
         Runtime.invoke_address ctx ~address ~dst:(loid 1) ~meth:"Echo"
           ~args:[ Value.Int 1 ] ~env:(Env.of_self (loid 2)) k)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replicated call failed: %s" (Err.to_string e));
  Alcotest.(check int) "replica 1 got it" 1 (Runtime.requests_of r1);
  Alcotest.(check int) "replica 2 got it" 1 (Runtime.requests_of r2)

let test_k_random_semantics () =
  let f = make_fixture () in
  let replicas =
    List.init 3 (fun i ->
        Runtime.spawn f.rt ~host:(List.nth f.hosts i) ~loid:(loid 1) ~kind:"app"
          ~handler:echo_handler ())
  in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let address =
    Address.make ~semantic:(Address.K_random 2) (List.map Runtime.element_of replicas)
  in
  (match
     sync f (fun k ->
         Runtime.invoke_address ctx ~address ~dst:(loid 1) ~meth:"Echo" ~args:[]
           ~env:(Env.of_self (loid 2)) k)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "k-random call: %s" (Err.to_string e));
  (* Exactly two of the three replicas were contacted. *)
  let contacted =
    List.length (List.filter (fun p -> Runtime.requests_of p = 1) replicas)
  in
  Alcotest.(check int) "two targets" 2 contacted

let test_failover_semantics () =
  let f = make_fixture ~config:{ Runtime.default_config with call_timeout = 0.3 } () in
  let dead =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 0) ~loid:(loid 1) ~kind:"app"
      ~handler:echo_handler ()
  in
  let live =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 2) ~loid:(loid 1) ~kind:"app"
      ~handler:echo_handler ()
  in
  Runtime.kill f.rt dead;
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let address =
    Address.make ~semantic:Address.Ordered_failover
      [ Runtime.element_of dead; Runtime.element_of live ]
  in
  (match
     sync f (fun k ->
         Runtime.invoke_address ctx ~address ~dst:(loid 1) ~meth:"Echo" ~args:[]
           ~env:(Env.of_self (loid 2)) k)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "failover failed: %s" (Err.to_string e));
  Alcotest.(check int) "live replica served" 1 (Runtime.requests_of live)

let test_failover_stops_on_real_reply () =
  (* Application errors must NOT fail over: only delivery failures do. *)
  let f = make_fixture () in
  let refuser =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 0) ~loid:(loid 1) ~kind:"app"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "policy")))
      ()
  in
  let fallback =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 2) ~loid:(loid 1) ~kind:"app"
      ~handler:echo_handler ()
  in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let address =
    Address.make ~semantic:Address.Ordered_failover
      [ Runtime.element_of refuser; Runtime.element_of fallback ]
  in
  (match
     sync f (fun k ->
         Runtime.invoke_address ctx ~address ~dst:(loid 1) ~meth:"Echo" ~args:[]
           ~env:(Env.of_self (loid 2)) k)
   with
  | Error (Err.Refused _) -> ()
  | r ->
      Alcotest.failf "expected refusal, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e));
  Alcotest.(check int) "fallback not consulted" 0 (Runtime.requests_of fallback)

(* A toy Binding Agent handler good enough for the comm-layer tests: it
   serves bindings from a mutable table. *)
let table_agent table : Runtime.handler =
 fun ctx call k ->
  match (call.Runtime.meth, call.Runtime.args) with
  | "GetBinding", [ arg ] -> (
      let target =
        match Loid.of_value arg with
        | Ok l -> Ok l
        | Error _ -> Result.map Binding.loid (Binding.of_value arg)
      in
      match target with
      | Error _ -> k (Error (Err.Bad_args "GetBinding"))
      | Ok target -> (
          match Loid.Table.find table target with
          | Some proc ->
              (* Serve the table entry even if the process has died —
                 exactly the staleness the comm layer must survive. *)
              k (Ok (Binding.to_value (Runtime.binding_of ctx.Runtime.rt proc)))
          | None -> k (Error (Err.Not_bound "unknown"))))
  | _ -> k (Error (Err.No_such_method call.Runtime.meth))

let test_invoke_resolves_via_agent () =
  let f = make_fixture () in
  let table = Loid.Table.create () in
  let agent =
    Runtime.spawn f.rt ~host:(List.hd f.hosts) ~loid:(loid 100)
      ~kind:"binding_agent" ~handler:(table_agent table) ()
  in
  let server = spawn_echo f ~host:(List.nth f.hosts 3) ~id:1 in
  Loid.Table.set table (loid 1) server;
  let client =
    Runtime.spawn f.rt ~host:(List.hd f.hosts) ~loid:(loid 2) ~kind:"client"
      ~binding_agent:(Runtime.address_of agent)
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let ctx = { Runtime.rt = f.rt; self = client } in
  (match
     sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resolve+call failed: %s" (Err.to_string e));
  Alcotest.(check int) "agent consulted once" 1 (Runtime.requests_of agent);
  (* Second call: served from the client's comm cache, agent idle. *)
  (match
     sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cached call failed: %s" (Err.to_string e));
  Alcotest.(check int) "cache hit, no new agent traffic" 1
    (Runtime.requests_of agent)

let test_stale_binding_rebind () =
  (* The object migrates; the client's cached binding fails; the comm
     layer refreshes through the agent and retries (§4.1.4). *)
  let f = make_fixture () in
  let table = Loid.Table.create () in
  let agent =
    Runtime.spawn f.rt ~host:(List.hd f.hosts) ~loid:(loid 100)
      ~kind:"binding_agent" ~handler:(table_agent table) ()
  in
  let server_v1 = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  Loid.Table.set table (loid 1) server_v1;
  let client =
    Runtime.spawn f.rt ~host:(List.hd f.hosts) ~loid:(loid 2) ~kind:"client"
      ~binding_agent:(Runtime.address_of agent)
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let ctx = { Runtime.rt = f.rt; self = client } in
  (match
     sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first call: %s" (Err.to_string e));
  (* "Migrate": kill v1, start v2 elsewhere, update the agent's table. *)
  Runtime.kill f.rt server_v1;
  let server_v2 = spawn_echo f ~host:(List.nth f.hosts 3) ~id:1 in
  Loid.Table.set table (loid 1) server_v2;
  (match
     sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-migration call: %s" (Err.to_string e));
  Alcotest.(check int) "new placement served" 1 (Runtime.requests_of server_v2)

let test_rebind_gives_up () =
  let f =
    make_fixture
      ~config:{ Runtime.default_config with call_timeout = 0.2; max_rebinds = 2 }
      ()
  in
  let table = Loid.Table.create () in
  let agent =
    Runtime.spawn f.rt ~host:(List.hd f.hosts) ~loid:(loid 100)
      ~kind:"binding_agent" ~handler:(table_agent table) ()
  in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  Loid.Table.set table (loid 1) server;
  let client =
    Runtime.spawn f.rt ~host:(List.hd f.hosts) ~loid:(loid 2) ~kind:"client"
      ~binding_agent:(Runtime.address_of agent)
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let ctx = { Runtime.rt = f.rt; self = client } in
  ignore (sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k));
  (* Kill the object but leave the agent's table stale: every rebind
     returns the same dead address; the comm layer must give up. *)
  Runtime.kill f.rt server;
  match
    sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k)
  with
  | Error e when Err.is_delivery_failure e -> ()
  | r ->
      Alcotest.failf "expected delivery failure, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e)

let test_no_agent_unreachable () =
  let f = make_fixture () in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  match
    sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k)
  with
  | Error (Err.Unreachable _) -> ()
  | _ -> Alcotest.fail "expected unreachable"

let test_double_reply_ignored () =
  (* A buggy handler replying twice must not corrupt the pending table:
     the first reply wins, the duplicate is dropped. *)
  let f = make_fixture () in
  let server =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 1) ~loid:(loid 1) ~kind:"app"
      ~handler:(fun _ _ k ->
        k (Ok (Value.Int 1));
        k (Ok (Value.Int 2)))
      ()
  in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let replies = ref [] in
  Runtime.invoke_address ctx ~address:(Runtime.address_of server) ~dst:(loid 1)
    ~meth:"Echo" ~args:[] ~env:(Env.of_self (loid 2)) (fun r ->
      replies := r :: !replies);
  Engine.run f.sim;
  (* Exactly-once delivery of the continuation; which duplicate wins
     depends on network jitter. *)
  match !replies with
  | [ Ok (Value.Int (1 | 2)) ] -> ()
  | rs -> Alcotest.failf "continuation fired %d times" (List.length rs)

let test_seed_binding_skips_agent () =
  let f = make_fixture () in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  Runtime.seed_binding client (Runtime.binding_of f.rt server);
  let ctx = { Runtime.rt = f.rt; self = client } in
  match
    sync f (fun k -> Runtime.invoke ctx ~dst:(loid 1) ~meth:"Echo" ~args:[] k)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seeded call failed: %s" (Err.to_string e)

let test_non_sim_element_unreachable () =
  let f = make_fixture () in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let address = Address.singleton (Address.Ip { host = 0x7F000001l; port = 80 }) in
  match
    sync f (fun k ->
        Runtime.invoke_address ctx ~address ~dst:(loid 1) ~meth:"Echo" ~args:[]
          ~env:(Env.of_self (loid 2)) k)
  with
  | Error (Err.Unreachable _) -> ()
  | _ -> Alcotest.fail "IP element should be unroutable in simulation"

(* --- Calls and replies: the typed message and its record form --- *)

let message_gen : Runtime.incoming QCheck.Gen.t =
  let open QCheck.Gen in
  let call =
    let+ id = int
    and+ src_loid = Gens.loid
    and+ src_host = nat
    and+ dst_loid = Gens.loid
    and+ dst_slot = nat
    and+ meth = string_size (0 -- 12)
    and+ args = list_size (0 -- 4) Gens.value
    and+ responsible = Gens.loid
    and+ security = Gens.loid
    and+ calling = Gens.loid in
    let env = Env.make ~responsible ~security ~calling in
    Runtime.In_call
      { id; src_loid; src_host; dst_loid; dst_slot; call = { meth; args; env } }
  in
  let reply =
    let+ id = int
    and+ reply = oneof [ map Result.ok Gens.value; map Result.error Gens.err ] in
    Runtime.In_reply { id; reply }
  in
  oneof [ call; reply ]

let message_equal (a : Runtime.incoming) (b : Runtime.incoming) =
  match (a, b) with
  | In_call a, In_call b ->
      a.id = b.id && Loid.equal a.src_loid b.src_loid && a.src_host = b.src_host
      && Loid.equal a.dst_loid b.dst_loid && a.dst_slot = b.dst_slot
      && String.equal a.call.meth b.call.meth
      && List.equal Value.equal a.call.args b.call.args
      && Env.equal a.call.env b.call.env
  | In_reply a, In_reply b ->
      a.id = b.id && Result.equal ~ok:Value.equal ~error:Err.equal a.reply b.reply
  | _ -> false

let arbitrary_message =
  QCheck.make
    ~print:(fun m -> Value.to_string (Runtime.codec.to_value m))
    message_gen

let message_size_is_record_size =
  QCheck.Test.make ~name:"size = size_bytes of the record form" ~count:500
    arbitrary_message (fun m ->
      Runtime.codec.size m = Value.size_bytes (Runtime.codec.to_value m))

let message_record_roundtrip =
  QCheck.Test.make ~name:"decode_incoming of the record form = message"
    ~count:500 arbitrary_message (fun m ->
      message_equal (Runtime.codec.of_value (Runtime.codec.to_value m)) m
      &&
      match Legion_wire.Envelope.(unseal (seal (Runtime.codec.to_value m))) with
      | Ok v -> message_equal (Runtime.codec.of_value v) m
      | Error _ -> false)

(* --- The exactly-once table against the tuple-keyed one --- *)

module Dedup = Legion_rt.Dedup

(* An arrival is a find, then an add when the key is absent. Each add
   starts an execution; [Reply] and [Shed] end the [k mod n]th of the
   [n] still running, in start order, so a reply can land after its
   entry was evicted and its key added again. *)
type dedup_step =
  | Arrive of { host : int; id : int; meth : string }
  | Reply of { k : int; v : int }
  | Shed of { k : int }

let show_dedup_step = function
  | Arrive { host; id; meth } -> Printf.sprintf "arrive %d/%d %s" host id meth
  | Reply { k; v } -> Printf.sprintf "reply #%d %d" k v
  | Shed { k } -> Printf.sprintf "shed #%d" k

let show_lookup : Dedup.lookup -> string = function
  | Absent -> "absent"
  | Running { meth; _ } -> "running " ^ meth
  | Replied { meth; reply = Ok v; _ } ->
      Printf.sprintf "replied %s %s" meth (Value.to_string v)
  | Replied { meth; reply = Error e; _ } ->
      Printf.sprintf "replied %s %s" meth (Err.to_string e)

let show_entries l =
  String.concat "; "
    (List.map (fun ((h, i), s) -> Printf.sprintf "%d/%d %s" h i (show_lookup s)) l)

let dedup_step_gen ~hosts =
  let open QCheck.Gen in
  frequency
    [
      ( 5,
        let+ host = 0 -- (hosts - 1)
        and+ id = 0 -- 4
        and+ meth = oneofl [ "A"; "B" ] in
        Arrive { host; id; meth } );
      ( 3,
        let+ k = nat and+ v = 0 -- 9 in
        Reply { k; v } );
      (1, map (fun k -> Shed { k }) nat);
    ]

let dedup_matches_ref =
  QCheck.Test.make ~name:"flat table answers as the tuple-keyed one" ~count:1000
    QCheck.(
      make
        ~print:(fun (capacity, hosts, steps) ->
          Printf.sprintf "capacity %d, %d hosts: %s" capacity hosts
            (String.concat "; " (List.map show_dedup_step steps)))
        Gen.(
          let* capacity = 1 -- 6 and* hosts = 1 -- 3 in
          let+ steps = list_size (0 -- 60) (dedup_step_gen ~hosts) in
          (capacity, hosts, steps)))
    (fun (capacity, _, steps) ->
      let t = Dedup.create ~capacity and o = Dedup_ref.create ~capacity in
      (* Executions still running: (host, id, serial, oracle entry). *)
      let running = ref [] in
      let take k =
        let n = List.length !running in
        let x = List.nth !running (k mod n) in
        running := List.filteri (fun i _ -> i <> k mod n) !running;
        x
      in
      let check what =
        if Dedup.length t <> Dedup_ref.length o then
          QCheck.Test.fail_reportf "after %s: length %d, reference %d" what
            (Dedup.length t) (Dedup_ref.length o);
        if Dedup.entries t <> Dedup_ref.entries o then
          QCheck.Test.fail_reportf "after %s: entries %s, reference %s" what
            (show_entries (Dedup.entries t))
            (show_entries (Dedup_ref.entries o))
      in
      List.iter
        (fun step ->
          (match step with
          | Arrive { host; id; meth } -> (
              let got = Dedup.find t ~host ~id and want = Dedup_ref.find o ~host ~id in
              if got <> want then
                QCheck.Test.fail_reportf "find %d/%d: %s, reference %s" host id
                  (show_lookup got) (show_lookup want);
              match got with
              | Absent ->
                  let loid = loid ((10 * host) + id) in
                  let serial = Dedup.add t ~host ~id ~loid ~meth in
                  let e = Dedup_ref.add o ~host ~id ~loid ~meth in
                  running := !running @ [ (host, id, serial, e) ]
              | Running _ | Replied _ -> ())
          | Reply { k; v } when !running <> [] ->
              let host, id, serial, e = take k in
              Dedup.record t ~host ~id ~serial (Ok (Value.Int v));
              Dedup_ref.record e (Ok (Value.Int v))
          | Shed { k } when !running <> [] ->
              let host, id, _, _ = take k in
              Dedup.remove t ~host ~id;
              Dedup_ref.remove o ~host ~id
          | Reply _ | Shed _ -> ());
          check (show_dedup_step step))
        steps;
      true)

(* The table is the runtime's, not a host's: a copy of a completed call
   that arrives after its host crashed and came back is still answered
   from the recorded reply, even at a fresh placement. *)
let test_dedup_outlives_crash () =
  let f = make_fixture () in
  let h0 = List.hd f.hosts and h1 = List.nth f.hosts 1 in
  let server = spawn_echo f ~host:h1 ~id:1 in
  let client = spawn_client f ~host:h0 ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let args = [ Value.Int 7 ] in
  (match call f ctx ~dst_proc:server ~meth:"Echo" ~args with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "call 0 failed: %s" (Err.to_string e));
  Runtime.crash_host f.rt h1;
  Network.set_host_up f.net h1 true;
  let fresh = spawn_echo f ~host:h1 ~id:1 in
  let dst_slot =
    match Runtime.element_of fresh with
    | Address.Sim { slot; _ } -> slot
    | _ -> Alcotest.fail "not a simulated element"
  in
  Network.send f.net Runtime.codec ~src:h0 ~dst:h1
    (Runtime.In_call
       {
         id = 0;
         src_loid = loid 2;
         src_host = h0;
         dst_loid = loid 1;
         dst_slot;
         call = { meth = "Echo"; args; env = Env.of_self (loid 2) };
       });
  Engine.run f.sim;
  Alcotest.(check int) "handler did not run again" 0 (Runtime.requests_of fresh);
  Alcotest.(check int) "copy answered from the table" 1 (Runtime.dedup_hits f.rt)

(* The fixed cost of a call: minor and promoted words per bare
   two-host invoke_address round trip (no admission), counted by the
   allocator, so the bounds hold on any machine. *)
let round_trip_words ~dedup_capacity =
  let config = { Runtime.default_config with dedup_capacity } in
  let f = make_fixture ~config ~hosts_per_site:2 ~sites:1 () in
  let server = spawn_echo f ~host:(List.nth f.hosts 1) ~id:1 in
  let client = spawn_client f ~host:(List.hd f.hosts) ~id:2 in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let address = Runtime.address_of server and env = Env.of_self (loid 2) in
  let round_trips n =
    for _ = 1 to n do
      let finished = ref false in
      Runtime.invoke_address ctx ~address ~dst:(loid 1) ~meth:"Echo"
        ~args:[ Value.Int 1 ] ~env (fun _ -> finished := true);
      while (not !finished) && Engine.step f.sim do
        ()
      done
    done
  in
  (* Warm up first, so the engine's record pool and the runtime's tables
     have stopped growing: past 4,096 calls a default dedup table is
     full, and every counted call evicts an entry. *)
  round_trips 6_000;
  let calls = 4_000 in
  Gc.minor ();
  let minor0, promoted0, _ = Gc.counters () in
  round_trips calls;
  Gc.minor ();
  let minor1, promoted1, _ = Gc.counters () in
  let per x0 x1 = (x1 -. x0) /. float_of_int calls in
  (per minor0 minor1, per promoted0 promoted1)

let test_round_trip_words () =
  let minor, _ = round_trip_words ~dedup_capacity:None in
  if minor > 300.0 then
    Alcotest.failf "%.1f minor words per round trip, bound 300" minor

(* Keeping a call in the exactly-once table costs the continuation that
   records its reply, and the reply itself outlives the call: no key,
   entry or node per call. Both counts are against the same round trip
   with the table off, warmed past 4,096 calls so that every counted
   call evicts an entry. *)
let test_dedup_words () =
  let bare_minor, bare_promoted = round_trip_words ~dedup_capacity:None in
  let minor, promoted = round_trip_words ~dedup_capacity:(Some 4096) in
  if minor -. bare_minor > 12.0 then
    Alcotest.failf "the table adds %.1f minor words per round trip, bound 12"
      (minor -. bare_minor);
  if promoted -. bare_promoted > 8.0 then
    Alcotest.failf "the table adds %.1f promoted words per round trip, bound 8"
      (promoted -. bare_promoted)

(* A spawn builds the process and registers its counter. The comm cache
   and the counter's name wait until something reads them. *)
let test_spawn_words () =
  let f = make_fixture () in
  let host = List.hd f.hosts in
  let n = 2_000 in
  let loids = Array.init (2 * n) loid in
  let spawn i =
    ignore
      (Runtime.spawn f.rt ~host ~loid:loids.(i) ~kind:"app" ~handler:echo_handler ())
  in
  for i = 0 to n - 1 do
    spawn i
  done;
  let w0 = Gc.minor_words () in
  for i = n to (2 * n) - 1 do
    spawn i
  done;
  let per_spawn = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_spawn > 120.0 then
    Alcotest.failf "%.1f minor words per spawn, bound 120" per_spawn

let () =
  Alcotest.run "rt"
    [
      ( "rpc",
        [
          Alcotest.test_case "spawn and echo" `Quick test_spawn_and_echo;
          Alcotest.test_case "error replies" `Quick test_error_reply;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "kill then no_such_object" `Quick
            test_kill_and_no_such_object;
          Alcotest.test_case "loid mismatch rejected" `Quick
            test_loid_mismatch_rejected;
          Alcotest.test_case "a spawn builds no cache and no name" `Quick
            test_spawn_words;
        ] );
      ( "addressing",
        [
          Alcotest.test_case "replication: All semantics" `Quick
            test_replication_all_semantics;
          Alcotest.test_case "ordered failover" `Quick test_failover_semantics;
          Alcotest.test_case "K_random races k targets" `Quick test_k_random_semantics;
          Alcotest.test_case "failover stops on real reply" `Quick
            test_failover_stops_on_real_reply;
          Alcotest.test_case "non-sim element unreachable" `Quick
            test_non_sim_element_unreachable;
        ] );
      ( "binding",
        [
          Alcotest.test_case "resolution via agent + caching" `Quick
            test_invoke_resolves_via_agent;
          Alcotest.test_case "stale binding rebinds" `Quick test_stale_binding_rebind;
          Alcotest.test_case "rebind gives up eventually" `Quick test_rebind_gives_up;
          Alcotest.test_case "no agent means unreachable" `Quick
            test_no_agent_unreachable;
          Alcotest.test_case "seeded binding" `Quick test_seed_binding_skips_agent;
          Alcotest.test_case "double reply ignored" `Quick test_double_reply_ignored;
        ] );
      ( "messages",
        [
          QCheck_alcotest.to_alcotest message_size_is_record_size;
          QCheck_alcotest.to_alcotest message_record_roundtrip;
          Alcotest.test_case "round trip allocates at most 300 words" `Quick
            test_round_trip_words;
          Alcotest.test_case "deduplicating a call promotes only its reply"
            `Quick test_dedup_words;
        ] );
      ( "dedup",
        [
          QCheck_alcotest.to_alcotest dedup_matches_ref;
          Alcotest.test_case "the table outlives a host crash" `Quick
            test_dedup_outlives_crash;
        ] );
    ]
