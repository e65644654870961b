(* End-to-end tests of the bootstrapped system: the §4.2 creation
   mechanism, the §4.1 binding mechanism (including activation on
   reference), and the class relations of §2.1. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module System = Legion.System
module Api = Legion.Api
module H = Helpers

let test_boot () =
  let sys = H.boot_two_sites () in
  Alcotest.(check int) "two sites" 2 (List.length (System.sites sys));
  Alcotest.(check int) "six hosts" 6
    (Legion_net.Network.host_count (System.net sys));
  (* The five core classes answer Ping. *)
  let ctx = System.client sys () in
  List.iter
    (fun cls ->
      match Api.call sys ctx ~dst:cls ~meth:"Ping" ~args:[] with
      | Ok Value.Unit -> ()
      | Ok v -> Alcotest.failf "Ping: unexpected %s" (Value.to_string v)
      | Error e -> Alcotest.failf "Ping %s: %s" (Loid.to_string cls) (Err.to_string e))
    Well_known.core_classes

let test_core_abstract () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  (* Core classes are Abstract: Create is refused (§2.1.2). *)
  match
    Api.create_object sys ctx ~cls:Well_known.legion_object ()
  with
  | Error (Err.Refused _) -> ()
  | Error e -> Alcotest.failf "expected Refused, got %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "abstract class created an instance"

(* The IDL each core class boots with is what GetInterface reports and
   what a typed subclass enforces at dispatch, so it must name every
   method the class's part serves; LegionObject's names the object part
   and the methods every composite answers natively. *)
let test_core_idl_names_part_methods () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let rt = System.rt sys in
  let self =
    match Runtime.find_proc rt Well_known.legion_class with
    | Some p -> p
    | None -> Alcotest.fail "LegionClass is not running"
  in
  let part_methods factory =
    (factory { Runtime.rt; self }).Legion_core.Impl.method_names
  in
  let sorted = List.sort String.compare in
  List.iter
    (fun (cls, served) ->
      match Api.get_interface sys ctx ~cls with
      | Ok iface ->
          Alcotest.(check (list string))
            (Loid.to_string cls ^ " names its part's methods")
            (sorted served)
            (sorted (Legion_idl.Interface.method_names iface))
      | Error e -> Alcotest.failf "GetInterface: %s" (Err.to_string e))
    [
      ( Well_known.legion_object,
        part_methods Legion_core.Object_part.factory
        @ [ "SaveState"; "RestoreState"; "GetMethodNames" ] );
      (Well_known.legion_class, part_methods Legion_core.Class_part.factory);
      (Well_known.legion_host, part_methods Legion_host.Host_part.factory);
      ( Well_known.legion_magistrate,
        part_methods Legion_jur.Magistrate_part.factory );
      ( Well_known.legion_binding_agent,
        part_methods Legion_binding.Agent_part.factory );
    ]

(* A Magistrate asks a Host Object IsAlive before it reactivates an
   object; a typed subclass of LegionHost must admit that probe. *)
let test_typed_host_admits_is_alive () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_host ~name:"TypedHost"
      ~kind:Well_known.kind_host ~typed:true ()
  in
  let host = Api.create_object_exn sys ctx ~cls () in
  match Api.call sys ctx ~dst:host ~meth:"IsAlive" ~args:[ Loid.to_value host ] with
  | Ok (Value.Bool false) -> ()
  | Ok v -> Alcotest.failf "IsAlive: unexpected %s" (Value.to_string v)
  | Error e -> Alcotest.failf "IsAlive: %s" (Err.to_string e)

let test_derive_and_create () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  Alcotest.(check bool) "class loid is a class" true (Loid.is_class cls);
  (* Lazy create: object starts Inert. *)
  let loid = Api.create_object_exn sys ctx ~cls () in
  Alcotest.(check bool) "instance is not a class" false (Loid.is_class loid);
  Alcotest.check H.loid_t "instance belongs to its class" cls
    (Loid.responsible_class loid);
  (* No process exists yet. *)
  Alcotest.(check bool) "inert after lazy create" true
    (Runtime.find_proc (System.rt sys) loid = None);
  (* First reference activates it (Fig. 17): the call goes client ->
     binding agent -> class -> magistrate -> host object -> process. *)
  let v = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 5 ] in
  Alcotest.(check int) "incremented" 5 (H.int_exn v);
  Alcotest.(check bool) "active after reference" true
    (Runtime.find_proc (System.rt sys) loid <> None);
  let v = Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[] in
  Alcotest.(check int) "state persists across calls" 5 (H.int_exn v)

let test_eager_create () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  match Api.create_object sys ctx ~cls ~eager:true () with
  | Error e -> Alcotest.failf "eager create: %s" (Err.to_string e)
  | Ok (loid, binding) ->
      Alcotest.(check bool) "binding returned" true (binding <> None);
      Alcotest.(check bool) "process live" true
        (Runtime.find_proc (System.rt sys) loid <> None)

let test_deactivate_reactivate () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls () in
  let _ = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 7 ] in
  (* Find which magistrate holds it, then Deactivate. *)
  let mag = List.hd (System.magistrates sys) in
  (match Api.call sys ctx ~dst:mag ~meth:"Deactivate" ~args:[ Loid.to_value loid ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deactivate: %s" (Err.to_string e));
  Alcotest.(check bool) "inert after deactivate" true
    (Runtime.find_proc (System.rt sys) loid = None);
  (* Invoking again transparently reactivates with saved state. The
     client's cached binding is stale; the §4.1.4 rebind path handles
     it. *)
  let v = Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[] in
  Alcotest.(check int) "state survived deactivation" 7 (H.int_exn v)

let test_get_interface () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  match Api.get_interface sys ctx ~cls with
  | Error e -> Alcotest.failf "GetInterface: %s" (Err.to_string e)
  | Ok iface ->
      Alcotest.(check bool) "has Increment" true
        (Legion_idl.Interface.mem iface "Increment");
      (* Inherited from LegionObject's interface by the Derive merge. *)
      Alcotest.(check bool) "has MayI" true (Legion_idl.Interface.mem iface "MayI")

let test_subclass_of_subclass () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let counter_cls = H.make_counter_class sys ctx () in
  (* Derive a subclass of Counter; instances inherit the counter unit. *)
  let sub = Api.derive_class_exn sys ctx ~parent:counter_cls ~name:"SubCounter" () in
  let loid = Api.create_object_exn sys ctx ~cls:sub () in
  let v = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 3 ] in
  Alcotest.(check int) "inherited implementation works" 3 (H.int_exn v)

let test_delete () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls () in
  let _ = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 1 ] in
  (match Api.call sys ctx ~dst:cls ~meth:"Delete" ~args:[ Loid.to_value loid ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "delete: %s" (Err.to_string e));
  Alcotest.(check bool) "process gone" true
    (Runtime.find_proc (System.rt sys) loid = None);
  (* Future binding attempts fail definitively (§3.8 Delete). *)
  match Api.call sys ctx ~dst:loid ~meth:"Get" ~args:[] with
  | Ok _ -> Alcotest.fail "deleted object answered"
  | Error _ -> ()

let test_clients_across_sites () =
  let sys = H.boot_two_sites () in
  let ctx0 = System.client sys ~site:0 () in
  let ctx1 = System.client sys ~site:1 () in
  let cls = H.make_counter_class sys ctx0 () in
  let loid = Api.create_object_exn sys ctx0 ~cls () in
  let _ = Api.call_exn sys ctx0 ~dst:loid ~meth:"Increment" ~args:[ Value.Int 2 ] in
  (* A client at the other site resolves through its own Binding Agent. *)
  let v = Api.call_exn sys ctx1 ~dst:loid ~meth:"Increment" ~args:[ Value.Int 3 ] in
  Alcotest.(check int) "both sites reach the object" 5 (H.int_exn v)

let () =
  Alcotest.run "system"
    [
      ( "bootstrap",
        [
          Alcotest.test_case "boot two sites" `Quick test_boot;
          Alcotest.test_case "core classes are abstract" `Quick test_core_abstract;
          Alcotest.test_case "core IDL names every part method" `Quick
            test_core_idl_names_part_methods;
          Alcotest.test_case "typed LegionHost subclass admits IsAlive" `Quick
            test_typed_host_admits_is_alive;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "derive, create, activate on reference" `Quick
            test_derive_and_create;
          Alcotest.test_case "eager create" `Quick test_eager_create;
          Alcotest.test_case "deactivate then reactivate" `Quick
            test_deactivate_reactivate;
          Alcotest.test_case "interface inheritance" `Quick test_get_interface;
          Alcotest.test_case "subclass of subclass" `Quick test_subclass_of_subclass;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "cross-site clients" `Quick test_clients_across_sites;
        ] );
    ]
