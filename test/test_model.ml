(* Model-based property test: random lifecycle histories against a
   reference model.

   The system under test is a booted Legion with k counter objects; the
   model is a plain int array. Operations — increment, read-and-check,
   deactivate, migrate — are generated randomly; after every read the
   system must agree with the model. This exercises the full stack
   (binding resolution, activation, state save/restore, migration,
   stale-binding recovery) under arbitrary interleavings. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module System = Legion.System
module Api = Legion.Api
module H = Helpers

type op =
  | Inc of int * int  (* object index, delta *)
  | Read of int
  | Deactivate of int
  | Migrate of int * int  (* object index, destination magistrate index *)
  | Crash of int  (* checkpoint, then crash object i's host *)

let pp_op = function
  | Inc (i, d) -> Printf.sprintf "Inc(%d,%d)" i d
  | Read i -> Printf.sprintf "Read(%d)" i
  | Deactivate i -> Printf.sprintf "Deact(%d)" i
  | Migrate (i, m) -> Printf.sprintf "Migrate(%d->%d)" i m
  | Crash i -> Printf.sprintf "Crash(%d)" i

let n_objects = 4
let n_sites = 2

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i d -> Inc (i, 1 + (abs d mod 9))) (int_bound (n_objects - 1)) int);
        (3, map (fun i -> Read i) (int_bound (n_objects - 1)));
        (2, map (fun i -> Deactivate i) (int_bound (n_objects - 1)));
        ( 1,
          map2
            (fun i m -> Migrate (i, abs m mod n_sites))
            (int_bound (n_objects - 1))
            int );
        (1, map (fun i -> Crash i) (int_bound (n_objects - 1)));
      ])

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (1 -- 25) op_gen)

(* Find which magistrate currently holds [loid]'s OPR. *)
let holder sys ctx loid =
  List.find_opt
    (fun m ->
      match Api.call sys ctx ~dst:m ~meth:"ListObjects" ~args:[] with
      | Ok (Value.List vs) ->
          List.exists
            (fun v ->
              match Loid.of_value v with Ok l -> Loid.equal l loid | _ -> false)
            vs
      | _ -> false)
    (System.magistrates sys)

let run_history ops =
  let sys =
    H.register_counter_unit ();
    Legion.System.boot ~seed:101L ~sites:[ ("m0", 3); ("m1", 3) ] ()
  in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let objects = Array.init n_objects (fun _ -> Api.create_object_exn sys ctx ~cls ()) in
  let model = Array.make n_objects 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Inc (i, d) -> (
            match
              Api.call sys ctx ~dst:objects.(i) ~meth:"Increment"
                ~args:[ Value.Int d ]
            with
            | Ok (Value.Int v) ->
                model.(i) <- model.(i) + d;
                if v <> model.(i) then ok := false
            | Ok _ | Error _ -> ok := false)
        | Read i -> (
            match Api.call sys ctx ~dst:objects.(i) ~meth:"Get" ~args:[] with
            | Ok (Value.Int v) -> if v <> model.(i) then ok := false
            | Ok _ | Error _ -> ok := false)
        | Deactivate i -> (
            match holder sys ctx objects.(i) with
            | Some m ->
                (* A deactivation may race nothing here (synchronous
                   driver), so it must succeed unless already inert. *)
                ignore
                  (Api.call sys ctx ~dst:m ~meth:"Deactivate"
                     ~args:[ Loid.to_value objects.(i) ])
            | None -> ok := false)
        | Migrate (i, dst) -> (
            match holder sys ctx objects.(i) with
            | Some m ->
                let target = List.nth (System.magistrates sys) dst in
                if not (Loid.equal m target) then
                  ignore
                    (Api.call sys ctx ~dst:m ~meth:"Move"
                       ~args:[ Loid.to_value objects.(i); Loid.to_value target ])
            | None -> ok := false)
        | Crash i -> (
            (* Checkpoint everything first (so the model stays exact),
               then crash the host the object runs on — if it is active
               and not sharing a host with site infrastructure. The host
               reboots immediately so later placements can reuse it. *)
            ignore (System.checkpoint_all sys);
            match Runtime.find_proc (System.rt sys) objects.(i) with
            | None -> () (* already inert; the checkpoint was the crash drill *)
            | Some p ->
                let h = Runtime.proc_host p in
                if not (List.mem h (System.infra_hosts sys)) then begin
                  Runtime.crash_host (System.rt sys) h;
                  Legion_net.Network.set_host_up (System.net sys) h true
                end))
    ops;
  (* Final audit: every object must agree with the model. *)
  if !ok then
    Array.iteri
      (fun i loid ->
        match Api.call sys ctx ~dst:loid ~meth:"Get" ~args:[] with
        | Ok (Value.Int v) -> if v <> model.(i) then ok := false
        | Ok _ | Error _ -> ok := false)
      objects;
  !ok

let model_property =
  QCheck.Test.make ~name:"random lifecycle histories agree with the model"
    ~count:30 ops_arbitrary run_history

(* A handful of directed histories that were interesting during
   development, pinned as regression cases. *)
let directed_cases =
  [
    ("inc then migrate then read", [ Inc (0, 5); Migrate (0, 1); Read 0 ]);
    ("deactivate twice", [ Inc (1, 2); Deactivate 1; Deactivate 1; Read 1 ]);
    ( "migrate ping-pong",
      [ Inc (2, 3); Migrate (2, 1); Migrate (2, 0); Migrate (2, 1); Read 2 ] );
    ( "interleaved objects",
      [ Inc (0, 1); Inc (1, 2); Deactivate 0; Inc (1, 1); Read 0; Read 1 ] );
    ( "migrate inert object",
      [ Inc (3, 4); Deactivate 3; Migrate (3, 1); Read 3 ] );
  ]

let directed_tests =
  List.map
    (fun (name, ops) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check bool) name true (run_history ops)))
    directed_cases

let () =
  Alcotest.run "model"
    [
      ("directed", directed_tests);
      ("random", [ QCheck_alcotest.to_alcotest model_property ]);
    ]
