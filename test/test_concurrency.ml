(* Concurrency stress: many in-flight operations against shared
   objects, including operations racing lifecycle transitions. The
   object model's promise is that methods are "non-blocking and may be
   accepted in any order" (§2) — these tests pin down what that means
   under contention. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Engine = Legion_sim.Engine
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module System = Legion.System
module Api = Legion.Api
module H = Helpers

let test_fan_in () =
  (* 8 clients x 25 concurrent increments at one object: every call is
     answered and the final count is exact — message passing serializes
     the handlers, no locks needed. *)
  let sys = H.boot_two_sites () in
  let setup = System.client sys () in
  let cls = H.make_counter_class sys setup () in
  let target = Api.create_object_exn sys setup ~cls ~eager:true () in
  let clients = List.init 8 (fun i -> System.client sys ~site:(i mod 2) ()) in
  let replies = ref 0 and failures = ref 0 in
  List.iter
    (fun c ->
      for _ = 1 to 25 do
        Runtime.invoke c ~dst:target ~meth:"Increment" ~args:[ Value.Int 1 ]
          (fun r ->
            match r with Ok _ -> incr replies | Error _ -> incr failures)
      done)
    clients;
  System.run sys;
  Alcotest.(check int) "all answered" 200 !replies;
  Alcotest.(check int) "no failures" 0 !failures;
  let v = H.int_exn (Api.call_exn sys setup ~dst:target ~meth:"Get" ~args:[]) in
  Alcotest.(check int) "exact count" 200 v

let test_create_storm () =
  (* Concurrent Create requests against one class: every allocated LOID
     is distinct and every object usable. *)
  let sys = H.boot_two_sites () in
  let setup = System.client sys () in
  let cls = H.make_counter_class sys setup () in
  let clients = List.init 6 (fun i -> System.client sys ~site:(i mod 2) ()) in
  let created = ref [] in
  List.iter
    (fun c ->
      for _ = 1 to 10 do
        Runtime.invoke c ~dst:cls ~meth:"Create"
          ~args:
            [
              Value.Record [];
              Value.Record [ ("eager", Value.Bool false) ];
            ]
          (fun r ->
            match r with
            | Ok v -> (
                match Legion_core.Convert.loid_field v "loid" with
                | Ok l -> created := l :: !created
                | Error _ -> ())
            | Error _ -> ())
      done)
    clients;
  System.run sys;
  Alcotest.(check int) "all creates answered" 60 (List.length !created);
  let distinct = List.sort_uniq Loid.compare !created in
  Alcotest.(check int) "all LOIDs distinct" 60 (List.length distinct);
  (* Spot-check a handful are live-able. *)
  List.iteri
    (fun i o ->
      if i < 5 then
        let v =
          H.int_exn (Api.call_exn sys setup ~dst:o ~meth:"Increment" ~args:[ Value.Int 1 ])
        in
        Alcotest.(check int) "usable" 1 v)
    !created

let test_calls_race_migration () =
  (* A stream of increments runs while the object is Moved between
     jurisdictions. Every acknowledged increment must be reflected in
     the final state — the §4.1.4 retry machinery hides the move, and
     at-least-once semantics may add duplicates but never lose an
     acknowledged update. *)
  let sys =
    H.register_counter_unit ();
    Legion.System.boot ~seed:91L
      ~rt_config:{ Runtime.default_config with call_timeout = 2.0; max_rebinds = 5 }
      ~sites:[ ("east", 3); ("west", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let m0 = (System.site sys 0).System.magistrate in
  let m1 = (System.site sys 1).System.magistrate in
  let obj = Api.create_object_exn sys ctx ~cls ~magistrate:m0 () in
  ignore (Api.call_exn sys ctx ~dst:obj ~meth:"Get" ~args:[]);
  (* Launch 30 async increments, and in the middle of the stream a
     Move. The sim interleaves everything. *)
  let acked = ref 0 and failed = ref 0 in
  let move_done = ref false in
  for i = 1 to 30 do
    Runtime.invoke ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ] (fun r ->
        match r with Ok _ -> incr acked | Error _ -> incr failed);
    if i = 15 then
      Runtime.invoke ctx ~dst:m0 ~meth:"Move"
        ~args:[ Loid.to_value obj; Loid.to_value m1 ]
        (fun r -> match r with Ok _ -> move_done := true | Error _ -> ())
  done;
  System.run sys;
  Alcotest.(check bool) "move completed" true !move_done;
  Alcotest.(check int) "every call answered" 30 (!acked + !failed);
  let v = H.int_exn (Api.call_exn sys ctx ~dst:obj ~meth:"Get" ~args:[]) in
  Alcotest.(check bool)
    (Printf.sprintf "no acknowledged update lost (%d acked, value %d)" !acked v)
    true (v >= !acked);
  (match Runtime.find_proc (System.rt sys) obj with
  | Some p ->
      Alcotest.(check bool) "ended up at west" true
        (List.mem (Runtime.proc_host p) (System.site sys 1).System.net_hosts)
  | None -> Alcotest.fail "object inactive at the end")

let test_interleaved_deactivation_stream () =
  (* Calls keep flowing while a deactivation loop bounces the object:
     clients never observe anything but success (masked staleness) and
     monotonically growing state. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls () in
  let last = ref 0 in
  for _round = 1 to 12 do
    let v = H.int_exn (Api.call_exn sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ]) in
    Alcotest.(check bool) "monotone" true (v > !last);
    last := v;
    (* Bounce it behind the client's back. *)
    List.iter
      (fun m ->
        ignore
          (Api.call sys ctx ~dst:m ~meth:"Deactivate" ~args:[ Loid.to_value obj ]))
      (System.magistrates sys)
  done;
  Alcotest.(check int) "final count" 12 !last

(* A Scheduling Agent that answers PickHost with the first candidate
   50 ms late: an activation placed through it is still in flight at
   its Magistrate when a request sent 10 ms after the cold call lands. *)
let slow_sched_unit = "test.sched.slow"

let register_slow_sched () =
  Impl.register slow_sched_unit (fun ctx ->
      let pick_host _ctx args _env k =
        match args with
        | [ Value.List (c :: _) ] -> (
            match Legion_core.Convert.loid_field c "host" with
            | Ok host ->
                ignore
                  (Engine.schedule (Runtime.sim ctx.Runtime.rt) ~delay:0.05
                     (fun () -> k (Ok (Loid.to_value host))))
            | Error msg -> Impl.bad_args k msg)
        | _ -> Impl.bad_args k "PickHost expects a non-empty candidate list"
      in
      Impl.part ~methods:[ ("PickHost", pick_host) ] slow_sched_unit)

(* An inert counter at m0 placed through the slow agent. A cold
   Increment(5) starts its activation; 10 ms later [meth] is sent to
   [dst]. Returns both replies once the simulation is quiescent. *)
let race_activation ~request =
  register_slow_sched ();
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let sched_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"SlowSched" ~units:[ slow_sched_unit ] ~kind:Well_known.kind_sched ()
  in
  let sched = Api.create_object_exn sys ctx ~cls:sched_cls ~eager:true () in
  let m0 = (System.site sys 0).System.magistrate in
  let m1 = (System.site sys 1).System.magistrate in
  let obj = Api.create_object_exn sys ctx ~cls ~magistrate:m0 ~sched () in
  let dst, meth, args = request ~cls ~obj ~m0 ~m1 in
  let cold = ref None and reply = ref None in
  Runtime.invoke ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 5 ] (fun r ->
      cold := Some r);
  ignore
    (Engine.schedule (System.sim sys) ~delay:0.01 (fun () ->
         Runtime.invoke ctx ~dst ~meth ~args (fun r -> reply := Some r)));
  System.run sys;
  (sys, ctx, obj, m0, m1, !reply)

let lists sys ctx mag obj =
  match Api.call sys ctx ~dst:mag ~meth:"ListObjects" ~args:[] with
  | Ok (Value.List vs) ->
      List.exists
        (fun v -> match Loid.of_value v with Ok l -> Loid.equal l obj | _ -> false)
        vs
  | _ -> Alcotest.fail "ListObjects"

let answered_ok what = function
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "%s: %s" what (Err.to_string e)
  | None -> Alcotest.failf "%s: no reply" what

let test_move_during_activation () =
  (* A Move that lands while the object's activation is in flight waits
     for it, then moves the object it created: the placement must not
     outlive m0's record, unmanaged by either Magistrate. *)
  let sys, ctx, obj, m0, m1, reply =
    race_activation ~request:(fun ~cls:_ ~obj ~m0 ~m1 ->
        (m0, "Move", [ Loid.to_value obj; Loid.to_value m1 ]))
  in
  answered_ok "Move" reply;
  Alcotest.(check bool) "m0 dropped the object" false (lists sys ctx m0 obj);
  Alcotest.(check bool) "m1 lists the object" true (lists sys ctx m1 obj);
  ignore (System.checkpoint_all sys);
  Alcotest.(check bool) "no placement outlives the sweep" true
    (Runtime.find_proc (System.rt sys) obj = None)

let test_delete_during_activation () =
  (* A class Delete that lands while the object's activation is in
     flight waits for it, then kills what it created: a deleted object
     must not keep answering calls. *)
  let sys, ctx, obj, _, _, reply =
    race_activation ~request:(fun ~cls ~obj ~m0:_ ~m1:_ ->
        (cls, "Delete", [ Loid.to_value obj ]))
  in
  answered_ok "Delete" reply;
  Alcotest.(check bool) "no live placement" true
    (Runtime.find_proc (System.rt sys) obj = None);
  match Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[] with
  | Error (Err.Not_bound _) -> ()
  | Ok v -> Alcotest.failf "deleted object answered Get with %s" (Value.to_string v)
  | Error e -> Alcotest.failf "expected Not_bound, got %s" (Err.to_string e)

let () =
  Alcotest.run "concurrency"
    [
      ( "contention",
        [
          Alcotest.test_case "fan-in is exact" `Quick test_fan_in;
          Alcotest.test_case "create storm" `Quick test_create_storm;
        ] );
      ( "lifecycle races",
        [
          Alcotest.test_case "calls race a Move" `Quick test_calls_race_migration;
          Alcotest.test_case "calls through deactivation churn" `Quick
            test_interleaved_deactivation_stream;
          Alcotest.test_case "a Move waits out an activation" `Quick
            test_move_during_activation;
          Alcotest.test_case "a Delete waits out an activation" `Quick
            test_delete_during_activation;
        ] );
    ]
