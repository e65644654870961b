(* Tests for the Host Object's resident set (§3.9): its replies and its
   zombie reaping against a model of the list filter it used to run on
   every call, the cost of a first-touch call as residents grow, and
   the cost of a Delete as the population grows. *)

module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Opr = Legion_core.Opr
module Well_known = Legion_core.Well_known
module Host_part = Legion_host.Host_part
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Api = Legion.Api
module System = Legion.System

(* --- The model: the resident list and the sweep that filtered it --- *)

(* The Host Object's resident list, newest first, with its capacity and
   activation count. The sweep is the filter [live_processes] ran on
   every call before the Host Object kept an index: a placement stays
   while it is live and its epoch is current; a live placement whose
   epoch trails its LOID's is a zombie, which the sweep kills in list
   order. Here it is pure: the kills become expected events. *)
type model = {
  mutable residents : (int * Runtime.proc) list;
  mutable cap : int option;
  mutable activations : int;
}

let zombie rt p =
  Runtime.is_live p
  && Runtime.proc_epoch p < Runtime.current_epoch rt (Runtime.proc_loid p)

let sweep rt m =
  let zombies = List.filter (fun (_, p) -> zombie rt p) m.residents in
  m.residents <-
    List.filter
      (fun (_, p) -> Runtime.is_live p && not (zombie rt p))
      m.residents;
  List.map (fun (_, p) -> `Deactivate (Runtime.proc_loid p)) zombies

type op =
  | Activate of int
  | Deactivate of int
  | Kill of int
  | Is_alive of int
  | Get_state
  | List_processes
  | Idle_processes of bool  (* true: threshold 0 (all), false: none *)
  | Reap
  | Set_cap of int
  | Rt_kill of int  (* the runtime kills the resident's placement *)
  | Rt_bump of int  (* an epoch bump: a live resident becomes a zombie *)
  | Rt_refresh of int
  | Power_cycle  (* power failure, then reboot *)

let show_op = function
  | Activate i -> Printf.sprintf "Activate %d" i
  | Deactivate i -> Printf.sprintf "Deactivate %d" i
  | Kill i -> Printf.sprintf "Kill %d" i
  | Is_alive i -> Printf.sprintf "IsAlive %d" i
  | Get_state -> "GetState"
  | List_processes -> "ListProcesses"
  | Idle_processes all -> Printf.sprintf "IdleProcesses %b" all
  | Reap -> "Reap"
  | Set_cap n -> Printf.sprintf "SetCPUload %d" n
  | Rt_kill i -> Printf.sprintf "rt kill %d" i
  | Rt_bump i -> Printf.sprintf "rt bump_epoch %d" i
  | Rt_refresh i -> Printf.sprintf "rt refresh_epoch %d" i
  | Power_cycle -> "power cycle"

let population = 5

let op_gen =
  let open QCheck.Gen in
  let obj = int_bound (population - 1) in
  frequency
    [
      (6, map (fun i -> Activate i) obj);
      (2, map (fun i -> Deactivate i) obj);
      (1, map (fun i -> Kill i) obj);
      (2, map (fun i -> Is_alive i) obj);
      (2, return Get_state);
      (1, return List_processes);
      (1, map (fun b -> Idle_processes b) bool);
      (1, return Reap);
      (1, map (fun n -> Set_cap n) (int_bound 4));
      (2, map (fun i -> Rt_kill i) obj);
      (3, map (fun i -> Rt_bump i) obj);
      (1, map (fun i -> Rt_refresh i) obj);
      (1, return Power_cycle);
    ]

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (1 -- 40) op_gen)

(* --- The system under test: one Host Object and one client --- *)

let obj_loid i = Loid.make ~class_id:60L ~class_specific:(Int64.of_int (i + 1)) ()
let host_loid = Loid.make ~class_id:61L ~class_specific:1L ()

let obj_opr =
  Opr.to_blob
    (Opr.make ~kind:Well_known.kind_app
       ~units:[ Legion_objects.Std_parts.counter_unit; Well_known.unit_object ]
       ())

type fixture = {
  sim : Engine.t;
  net : Runtime.incoming Network.t;
  rt : Runtime.t;
  host : Network.host_id;
  host_proc : Runtime.proc;
  ctx : Runtime.ctx;
}

let make_fixture () =
  Legion_core.Object_part.register ();
  Host_part.register ();
  Legion_objects.Std_parts.register_counter ();
  let sim = Engine.create () in
  let prng = Prng.create ~seed:16L in
  let net = Network.create ~sim ~prng:(Prng.split prng) () in
  let site = Network.add_site net ~name:"s" in
  let host = Network.add_host net ~site ~name:"h0" in
  let client_host = Network.add_host net ~site ~name:"h1" in
  let rt =
    Runtime.create ~sim ~net ~registry:(Counter.Registry.create ())
      ~prng:(Prng.split prng) ()
  in
  let host_opr =
    Opr.make
      ~states:[ (Host_part.unit_name, Host_part.state_value ()) ]
      ~kind:Well_known.kind_host
      ~units:[ Host_part.unit_name; Well_known.unit_object ]
      ()
  in
  let host_proc =
    match Impl.activate rt ~host ~loid:host_loid host_opr with
    | Ok p -> p
    | Error msg -> Alcotest.failf "cannot start the Host Object: %s" msg
  in
  let client =
    Runtime.spawn rt ~host:client_host ~loid:(obj_loid 99) ~kind:"client"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  { sim; net; rt; host; host_proc; ctx = { Runtime.rt; self = client } }

let call f meth args =
  let r = ref None in
  Runtime.invoke_address f.ctx
    ~address:(Runtime.address_of f.host_proc)
    ~dst:host_loid ~meth ~args
    ~env:(Env.of_self (Runtime.proc_loid f.ctx.Runtime.self))
    (fun x -> r := Some x);
  Engine.run f.sim;
  match !r with Some x -> x | None -> Alcotest.fail "no reply before quiescence"

let placed m i = List.assoc_opt i m.residents

(* The Deactivate and Fence events of a step, oldest first. *)
let watched f mark =
  List.filter_map
    (fun e ->
      match e.Event.kind with
      | Event.Deactivate { loid } -> Some (`Deactivate loid)
      | Event.Fence { loid; epoch; current } -> Some (`Fence (loid, epoch, current))
      | _ -> None)
    (Recorder.events_since (Runtime.obs f.rt) mark)

let show_event = function
  | `Deactivate l -> "Deactivate " ^ Loid.to_string l
  | `Fence (l, e, c) -> Printf.sprintf "Fence %s %d<%d" (Loid.to_string l) e c

let reply_str = function
  | Ok v -> Value.to_string v
  | Error e -> "error " ^ Err.to_string e

let vloids is = Value.List (List.map (fun i -> Loid.to_value (obj_loid i)) is)

(* Replies are compared with [Value.equal]: a LOID or an address in
   them is a typed value whose record is built on demand, which
   polymorphic equality cannot compare. *)
let answers r v = match r with Ok x -> Value.equal x v | Error _ -> false

(* Run one step on the Host Object and on the model; fail on the first
   reply or event that differs. *)
let step f m op =
  let mark = Recorder.total (Runtime.obs f.rt) in
  (* The events the model expects, and for a call, whether the reply
     matched it. *)
  let expected_events, reply =
    match op with
    | Activate i ->
        let ev = sweep f.rt m in
        let r = call f "Activate" [ Loid.to_value (obj_loid i); Value.Blob obj_opr ] in
        let ok =
          match (m.cap, placed m i, r) with
          | Some c, _, Error (Err.Refused _) when List.length m.residents >= c -> true
          | Some c, _, _ when List.length m.residents >= c -> false
          | _, Some p, Ok v ->
              Value.equal v
                (Value.Record [ ("addr", Address.to_value (Runtime.address_of p)) ])
          | _, None, Ok v -> (
              match Runtime.placements f.rt (obj_loid i) with
              | p :: _
                when Runtime.proc_host p = f.host
                     && Value.equal v
                          (Value.Record
                             [ ("addr", Address.to_value (Runtime.address_of p)) ]) ->
                  m.residents <- (i, p) :: m.residents;
                  m.activations <- m.activations + 1;
                  true
              | _ -> false)
          | _ -> false
        in
        (ev, Some (ok, r))
    | Deactivate i ->
        let ev = sweep f.rt m in
        let found = placed m i in
        let r = call f "Deactivate" [ Loid.to_value (obj_loid i) ] in
        let ok, ev =
          match (found, r) with
          | Some p, Ok (Value.Blob _) ->
              m.residents <- List.remove_assoc i m.residents;
              (true, ev @ [ `Deactivate (Runtime.proc_loid p) ])
          | None, Error (Err.Not_bound _) -> (true, ev)
          | _ -> (false, ev)
        in
        (ev, Some (ok, r))
    | Kill i ->
        let ev = sweep f.rt m in
        let ev =
          match placed m i with
          | Some p -> ev @ [ `Deactivate (Runtime.proc_loid p) ]
          | None -> ev
        in
        m.residents <- List.remove_assoc i m.residents;
        let r = call f "Kill" [ Loid.to_value (obj_loid i) ] in
        (ev, Some (Result.is_ok r, r))
    | Is_alive i ->
        let ev = sweep f.rt m in
        let r = call f "IsAlive" [ Loid.to_value (obj_loid i) ] in
        (ev, Some (answers r (Value.Bool (placed m i <> None)), r))
    | Get_state ->
        let ev = sweep f.rt m in
        let r = call f "GetState" [] in
        let expected =
          Value.Record
            [
              ("load", Value.Int (List.length m.residents));
              ("cap", Value.List (Option.to_list (Option.map Value.of_int m.cap)));
              ("mem", Value.Int 0);
              ("activations", Value.Int m.activations);
              ("exceptions", Value.Int 0);
            ]
        in
        (ev, Some (answers r expected, r))
    | List_processes ->
        let ev = sweep f.rt m in
        let r = call f "ListProcesses" [] in
        (ev, Some (answers r (vloids (List.map fst m.residents)), r))
    | Idle_processes all ->
        let ev = sweep f.rt m in
        let threshold = if all then 0.0 else 1e9 in
        let r = call f "IdleProcesses" [ Value.Float threshold ] in
        let expected = if all then List.map fst m.residents else [] in
        (ev, Some (answers r (vloids expected), r))
    | Reap ->
        let before = List.length m.residents in
        let ev = sweep f.rt m in
        let r = call f "Reap" [] in
        (ev, Some (answers r (Value.Int (before - List.length m.residents)), r))
    | Set_cap n ->
        m.cap <- (if n <= 0 then None else Some n);
        let r = call f "SetCPUload" [ Value.Int n ] in
        ([], Some (Result.is_ok r, r))
    | Rt_kill i ->
        let ev =
          match placed m i with
          | Some p when Runtime.is_live p ->
              Runtime.kill f.rt p;
              [ `Deactivate (Runtime.proc_loid p) ]
          | _ -> []
        in
        (ev, None)
    | Rt_bump i ->
        ignore (Runtime.bump_epoch f.rt (obj_loid i));
        ([], None)
    | Rt_refresh i ->
        Option.iter (Runtime.refresh_epoch f.rt) (placed m i);
        ([], None)
    | Power_cycle ->
        (* The reboot reaper fences the host's zombies in activation
           order (oldest first); the dead entries stay in the Host
           Object's list until its next sweep. *)
        let ev =
          List.concat_map
            (fun (_, p) ->
              if zombie f.rt p then
                let l = Runtime.proc_loid p in
                [
                  `Fence
                    (l, Runtime.proc_epoch p, Runtime.current_epoch f.rt l);
                  `Deactivate l;
                ]
              else [])
            (List.rev m.residents)
        in
        Runtime.power_fail f.rt f.host;
        Network.set_host_up f.net f.host true;
        (ev, None)
  in
  (match reply with
  | Some (false, r) ->
      QCheck.Test.fail_reportf "%s: unexpected reply %s" (show_op op) (reply_str r)
  | Some (true, _) | None -> ());
  let got = watched f mark in
  if got <> expected_events then
    QCheck.Test.fail_reportf "%s: events [%s], model [%s]" (show_op op)
      (String.concat "; " (List.map show_event got))
      (String.concat "; " (List.map show_event expected_events))

let host_matches_sweep_model =
  QCheck.Test.make ~name:"Host Object matches the resident-sweep model"
    ~count:300 arbitrary_ops (fun ops ->
      let f = make_fixture () in
      let m = { residents = []; cap = None; activations = 0 } in
      List.iter (step f m) ops;
      true)

(* --- A change on the host while the Host Object kills a resident --- *)

(* Deactivate kills its resident only after a SaveState round trip, and
   the runtime may report another change on the host meanwhile. Moving
   the sweep mark past its own kill must not skip that change. Here the
   saving object bumps the epoch of the other resident, which makes it
   a zombie that the next call must reap. *)
let test_change_during_deactivate_still_sweeps () =
  let f = make_fixture () in
  let bump_unit = "test.bump_on_save" in
  Impl.register bump_unit (fun ctx ->
      Impl.part
        ~save:(fun () ->
          ignore (Runtime.bump_epoch ctx.Runtime.rt (obj_loid 1));
          Value.Unit)
        bump_unit);
  let saver =
    Opr.to_blob
      (Opr.make ~kind:Well_known.kind_app
         ~units:[ bump_unit; Well_known.unit_object ] ())
  in
  let expect what ok r = if not ok then Alcotest.failf "%s: %s" what (reply_str r) in
  let activate i opr =
    let r = call f "Activate" [ Loid.to_value (obj_loid i); Value.Blob opr ] in
    expect "Activate" (Result.is_ok r) r
  in
  activate 0 saver;
  activate 1 obj_opr;
  let r = call f "Deactivate" [ Loid.to_value (obj_loid 0) ] in
  expect "Deactivate" (match r with Ok (Value.Blob _) -> true | _ -> false) r;
  let r = call f "IsAlive" [ Loid.to_value (obj_loid 1) ] in
  expect "IsAlive of the zombie" (r = Ok (Value.Bool false)) r

(* --- Allocation per first-touch call does not grow with residents --- *)

(* Minor words are a function of the code and the inputs, not of the
   machine, so the bound holds anywhere. One host carries every
   object; each measured call is the first touch of an inert object,
   through Binding Agent, class, Magistrate and Host Object. *)
let test_first_touch_words_flat () =
  Helpers.register_counter_unit ();
  let sys = System.boot ~sites:[ ("solo", 1) ] () in
  let ctx = System.client sys () in
  let cls = Helpers.make_counter_class sys ctx () in
  let calls = 100 and small = 200 and large = 2000 in
  let objs =
    Array.init (large + calls) (fun _ ->
        Api.create_object_exn sys ctx ~cls ~eager:false ())
  in
  let touch i = ignore (Api.call_exn sys ctx ~dst:objs.(i) ~meth:"Ping" ~args:[]) in
  let words_per_call ~from =
    let w0 = Gc.minor_words () in
    for i = from to from + calls - 1 do
      touch i
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  for i = 0 to small - 1 do touch i done;
  let at_small = words_per_call ~from:small in
  for i = small + calls to large - 1 do touch i done;
  let at_large = words_per_call ~from:large in
  Alcotest.(check bool)
    (Printf.sprintf "words per first-touch call at %d residents (%.0f) <= 1.2 x at %d (%.0f)"
       (large + calls) at_large (small + calls) at_small)
    true
    (at_large <= 1.2 *. at_small)

(* --- Allocation per Delete does not grow with the population --- *)

(* A Delete removes the object's row from its class's logical table and
   its record from the Magistrate; an active object is also killed and
   dropped from its Host Object's residents. None of these may walk the
   population. One 3-host site; the 50 oldest objects are deleted. *)
let delete_words ~eager ~population =
  Helpers.register_counter_unit ();
  let sys = System.boot ~sites:[ ("solo", 3) ] () in
  let ctx = System.client sys () in
  let cls = Helpers.make_counter_class sys ctx () in
  let objs =
    Array.init population (fun _ -> Api.create_object_exn sys ctx ~cls ~eager ())
  in
  let deletes = 50 in
  let w0 = Gc.minor_words () in
  for i = 0 to deletes - 1 do
    match Api.delete_object sys ctx ~cls ~loid:objs.(i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "Delete: %s" (Err.to_string e)
  done;
  (Gc.minor_words () -. w0) /. float_of_int deletes

let test_delete_words_flat ~eager () =
  let small = 300 and large = 3000 in
  let at_small = delete_words ~eager ~population:small in
  let at_large = delete_words ~eager ~population:large in
  Alcotest.(check bool)
    (Printf.sprintf "words per Delete at %d objects (%.0f) <= 1.2 x at %d (%.0f)"
       large at_large small at_small)
    true
    (at_large <= 1.2 *. at_small)

let () =
  Alcotest.run "host"
    [
      ( "sweep",
        [
          QCheck_alcotest.to_alcotest host_matches_sweep_model;
          Alcotest.test_case "a change during Deactivate still sweeps" `Quick
            test_change_during_deactivate_still_sweeps;
        ] );
      ( "growth",
        [
          Alcotest.test_case "first-touch words flat in residents" `Quick
            test_first_touch_words_flat;
          Alcotest.test_case "inert Delete words flat in population" `Quick
            (test_delete_words_flat ~eager:false);
          Alcotest.test_case "active Delete words flat in population" `Quick
            (test_delete_words_flat ~eager:true);
        ] );
    ]
