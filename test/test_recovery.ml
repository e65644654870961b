(* Crash recovery: epoch-fenced bindings, checkpoint pruning, Activate
   fall-over across dead hosts, and class-driven proactive reactivation
   after a confirmed host death (no caller involved). *)

module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Binding = Legion_naming.Binding
module Address = Legion_naming.Address
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module Persistent = Legion_store.Persistent
module Disk = Legion_store.Disk
module System = Legion.System
module Api = Legion.Api
open Helpers

(* Like the trace assertions, these recovery sequences are shaped by
   the protocol, not by timing, so they must hold for any boot seed.
   LEGION_TRACE_SEED (swept by test/dune) shifts every seed in the
   file; the defaults below reproduce the historical fixed seeds. *)
let base_seed =
  match Sys.getenv_opt "LEGION_TRACE_SEED" with
  | Some s -> Int64.of_string s
  | None -> 17L

(* --- bindings carry an incarnation epoch --- *)

let test_binding_epoch_roundtrip () =
  let l = Loid.make ~class_id:9L ~class_specific:4L () in
  let addr = Address.make [ Address.Sim { host = 3; slot = 7 } ] in
  let b = Binding.make ~epoch:5 ~loid:l ~address:addr () in
  Alcotest.(check int) "epoch kept" 5 (Binding.epoch b);
  (match Binding.of_value (Binding.to_value b) with
  | Ok b' ->
      Alcotest.(check bool) "wire roundtrip" true (Binding.equal b b');
      Alcotest.(check int) "epoch over the wire" 5 (Binding.epoch b')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* A binding minted before epochs existed has no "epo" field; it must
     decode as incarnation 0, not fail. *)
  let legacy =
    match Binding.to_value (Binding.make ~loid:l ~address:addr ()) with
    | Value.Record fields ->
        Value.Record (List.filter (fun (k, _) -> k <> "epo") fields)
    | v -> v
  in
  match Binding.of_value legacy with
  | Ok b' -> Alcotest.(check int) "legacy decodes as epoch 0" 0 (Binding.epoch b')
  | Error e -> Alcotest.failf "legacy decode failed: %s" e

(* --- the runtime fences superseded incarnations --- *)

type fixture = {
  sim : Engine.t;
  rt : Runtime.t;
  obs : Recorder.t;
  hosts : int list;
}

let make_fixture ?(seed = base_seed) () =
  let sim = Engine.create () in
  let prng = Prng.create ~seed in
  let registry = Counter.Registry.create () in
  let obs = Recorder.create ~clock:(fun () -> Engine.now sim) () in
  let net = Network.create ~sim ~prng:(Prng.split prng) ~obs () in
  let site = Network.add_site net ~name:"s0" in
  let hosts =
    List.init 2 (fun i -> Network.add_host net ~site ~name:(Printf.sprintf "h%d" i))
  in
  let rt =
    Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) ~obs ()
  in
  { sim; rt; obs; hosts }

let echo_handler : Runtime.handler =
 fun _ctx call k ->
  match call.Runtime.meth with
  | "Echo" -> k (Ok (Value.List call.Runtime.args))
  | m -> k (Error (Err.No_such_method m))

let test_stale_epoch_fenced () =
  let f = make_fixture () in
  let l = Loid.make ~class_id:61L ~class_specific:1L () in
  let old_proc =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 0) ~loid:l ~kind:"app"
      ~handler:echo_handler ()
  in
  Alcotest.(check int) "first incarnation" 0 (Runtime.proc_epoch old_proc);
  (* A new incarnation opens... *)
  Alcotest.(check int) "bumped" 1 (Runtime.bump_epoch f.rt l);
  let new_proc =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 1) ~loid:l ~kind:"app"
      ~handler:echo_handler ()
  in
  Alcotest.(check int) "spawn picks the current epoch" 1
    (Runtime.proc_epoch new_proc);
  let client =
    Runtime.spawn f.rt ~host:(List.nth f.hosts 0)
      ~loid:(Loid.make ~class_id:61L ~class_specific:2L ())
      ~kind:"client"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let mark = Recorder.total f.obs in
  let direct proc k =
    Runtime.invoke_address ctx
      ~address:(Runtime.address_of proc)
      ~dst:l ~meth:"Echo" ~args:[ Value.Int 1 ]
      ~env:(Env.of_self (Runtime.proc_loid client))
      k
  in
  let reply = ref None in
  direct old_proc (fun r -> reply := Some r);
  Engine.run f.sim;
  (match !reply with
  | Some (Error Err.Stale_epoch) -> ()
  | Some (Ok v) -> Alcotest.failf "zombie answered: %s" (Value.to_string v)
  | Some (Error e) -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | None -> Alcotest.fail "no reply");
  Alcotest.(check bool) "fencing is a delivery failure" true
    (Err.is_delivery_failure Err.Stale_epoch);
  Alcotest.(check int) "zombie never dispatched" 0 (Runtime.requests_of old_proc);
  let events = Recorder.events_since f.obs mark in
  Alcotest.(check bool) "fence event emitted" true
    (Trace.count_of (Trace.fence ~loid:l ()) events >= 1);
  (* The current incarnation still answers at the same LOID. *)
  let reply = ref None in
  direct new_proc (fun r -> reply := Some r);
  Engine.run f.sim;
  match !reply with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "current incarnation refused: %s" (Err.to_string e)
  | None -> Alcotest.fail "no reply from current incarnation"

(* --- the persistent store keeps a bounded number of versions --- *)

let prune_prop =
  QCheck.Test.make ~name:"put keeps at most K versions per loid" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 4) (int_bound 40)))
    (fun ops ->
      QCheck.assume (ops <> []);
      let keep = 2 in
      let disks = [ Disk.create ~name:"d0"; Disk.create ~name:"d1" ] in
      let store = Persistent.create ~keep ~disks () in
      let last = Hashtbl.create 8 in
      List.iter
        (fun (i, size) ->
          let loid = Loid.make ~class_id:77L ~class_specific:(Int64.of_int i) () in
          let opa = Persistent.put store ~loid (String.make size 'x') in
          Hashtbl.replace last i (opa, size))
        ops;
      let distinct = Hashtbl.length last in
      let max_size =
        List.fold_left (fun acc (_, s) -> max acc s) 0 ops
      in
      if Persistent.total_files store > distinct * keep then
        QCheck.Test.fail_reportf "%d files for %d loids (keep %d)"
          (Persistent.total_files store) distinct keep;
      if Persistent.total_bytes store > distinct * keep * max_size then
        QCheck.Test.fail_reportf "%d bytes exceeds %d loids x %d x %d"
          (Persistent.total_bytes store) distinct keep max_size;
      (* The newest version of every object must have survived pruning. *)
      Hashtbl.iter
        (fun i (opa, size) ->
          match Persistent.get store opa with
          | Some blob when String.length blob = size -> ()
          | Some _ -> QCheck.Test.fail_reportf "loid %d: wrong blob" i
          | None -> QCheck.Test.fail_reportf "loid %d: newest version pruned" i)
        last;
      true)

(* --- Activate falls over dead hosts --- *)

let boot_three_hosts () =
  register_counter_unit ();
  System.boot ~seed:(Int64.add base_seed 14L)
    ~rt_config:{ Runtime.default_config with Runtime.call_timeout = 1.0 }
    ~sites:[ ("solo", 3) ]
    ()

let test_activate_fall_over () =
  let sys = boot_three_hosts () in
  let site = List.hd (System.sites sys) in
  let ctx = System.client sys () in
  let cls = make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls () in
  (match Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 5 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "warm-up failed: %s" (Err.to_string e));
  (match
     Api.call sys ctx ~dst:site.System.magistrate ~meth:"Deactivate"
       ~args:[ Loid.to_value obj ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "Deactivate failed: %s" (Err.to_string e));
  (* Kill the second host, then ask for activation *on it* via the
     placement hint: the Magistrate's first-choice attempt must fail and
     fall over to a surviving host instead of wedging. *)
  let dead_host = List.nth site.System.net_hosts 1 in
  let dead_host_obj = List.nth site.System.host_objects 1 in
  Runtime.crash_host (System.rt sys) dead_host;
  let hints =
    Value.Record [ ("host", Value.List [ Loid.to_value dead_host_obj ]) ]
  in
  (match
     Api.call sys ctx ~dst:site.System.magistrate ~meth:"Activate"
       ~args:[ Loid.to_value obj; hints ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fall-over failed: %s" (Err.to_string e));
  (match Runtime.find_proc (System.rt sys) obj with
  | Some p ->
      Alcotest.(check bool) "landed on a surviving host" true
        (Runtime.proc_host p <> dead_host)
  | None -> Alcotest.fail "object not active after fall-over");
  (match Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[] with
  | Ok v -> Alcotest.(check int) "state survived" 5 (int_exn v)
  | Error e -> Alcotest.failf "Get failed: %s" (Err.to_string e));
  (* Exhaustion: shrink the Jurisdiction to the dead host only; the
     original delivery error must surface, not an internal one. *)
  (match
     Api.call sys ctx ~dst:site.System.magistrate ~meth:"Deactivate"
       ~args:[ Loid.to_value obj ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "second Deactivate failed: %s" (Err.to_string e));
  List.iteri
    (fun i ho ->
      if i <> 1 then
        match
          Api.call sys ctx ~dst:site.System.magistrate ~meth:"RemoveHost"
            ~args:[ Loid.to_value ho ]
        with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "RemoveHost failed: %s" (Err.to_string e))
    site.System.host_objects;
  match
    Api.call sys ctx ~dst:site.System.magistrate ~meth:"Activate"
      ~args:[ Loid.to_value obj; Value.Record [] ]
  with
  | Ok _ -> Alcotest.fail "activation succeeded with every host dead"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "delivery failure surfaced (got %s)" (Err.to_string e))
        true (Err.is_delivery_failure e)

(* --- proactive recovery: no caller needed --- *)

let test_proactive_reactivation () =
  register_counter_unit ();
  let sys =
    System.boot ~seed:(Int64.add base_seed 20L)
      ~rt_config:{ Runtime.default_config with Runtime.call_timeout = 0.5 }
      ~sites:[ ("uva", 3); ("doe", 3) ]
      ()
  in
  let rt = System.rt sys and obs = System.obs sys in
  let ctx = System.client sys () in
  let client_loid = Runtime.proc_loid ctx.Runtime.self in
  let cls = make_counter_class sys ctx () in
  let objs =
    List.init 6 (fun _ -> Api.create_object_exn sys ctx ~cls ~eager:true ())
  in
  List.iter
    (fun o ->
      match Api.call sys ctx ~dst:o ~meth:"Increment" ~args:[ Value.Int 7 ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warm-up failed: %s" (Err.to_string e))
    objs;
  let infra = System.infra_hosts sys in
  let victim_obj, victim_host =
    match
      List.filter_map
        (fun o ->
          match Runtime.find_proc rt o with
          | Some p when not (List.mem (Runtime.proc_host p) infra) ->
              Some (o, Runtime.proc_host p)
          | _ -> None)
        objs
    with
    | x :: _ -> x
    | [] -> Alcotest.fail "no object landed outside the infrastructure hosts"
  in
  let epoch_before = Runtime.current_epoch rt victim_obj in
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(System.now sys +. 10.0)
    ();
  (* Let at least one checkpoint capture the counter's state... *)
  System.run_for sys 2.0;
  let mark = Recorder.total obs in
  Runtime.power_fail rt victim_host;
  (* ...then give detection and recovery time to run. The client is
     silent throughout: reactivation must not need a caller. *)
  System.run_for sys 4.0;
  let events = Recorder.events_since obs mark in
  let reactivated =
    List.exists (Trace.reactivate ~loid:victim_obj ()) events
  in
  Alcotest.(check bool) "object was reactivated" true reactivated;
  let before_reactivation =
    let rec take acc = function
      | [] -> List.rev acc
      | e :: _ when Trace.reactivate ~loid:victim_obj () e -> List.rev acc
      | e :: rest -> take (e :: acc) rest
    in
    take [] events
  in
  Alcotest.(check int) "no client call preceded the reactivation" 0
    (Trace.count_of (Trace.call ~src:client_loid ()) before_reactivation);
  (match Runtime.find_proc rt victim_obj with
  | Some p ->
      Alcotest.(check bool) "reactivated on a surviving host" true
        (Runtime.proc_host p <> victim_host)
  | None -> Alcotest.fail "object not active after recovery");
  Alcotest.(check bool) "a fresh incarnation opened" true
    (Runtime.current_epoch rt victim_obj > epoch_before);
  match Api.call sys ctx ~dst:victim_obj ~meth:"Get" ~args:[] with
  | Ok v -> Alcotest.(check int) "checkpointed state recovered" 7 (int_exn v)
  | Error e -> Alcotest.failf "Get after recovery failed: %s" (Err.to_string e)

let () =
  Alcotest.run "recovery"
    [
      ( "epoch-fencing",
        [
          Alcotest.test_case "binding carries its epoch" `Quick
            test_binding_epoch_roundtrip;
          Alcotest.test_case "stale incarnations are fenced" `Quick
            test_stale_epoch_fenced;
        ] );
      ( "checkpoint-store",
        [ QCheck_alcotest.to_alcotest prune_prop ] );
      ( "fall-over",
        [
          Alcotest.test_case "Activate falls over a crashed host" `Quick
            test_activate_fall_over;
        ] );
      ( "proactive",
        [
          Alcotest.test_case "dead host's objects come back uncalled" `Quick
            test_proactive_reactivation;
        ] );
    ]
