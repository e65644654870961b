(* Shared fixtures for the test suites: the standard counter unit and
   small boot configurations. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid

let counter_unit = Legion_objects.Std_parts.counter_unit
let register_counter_unit = Legion_objects.Std_parts.register_counter

(* The standard counter's IDL, plus its undeclared-by-default Reset. *)
let counter_idl =
  "interface Counter { Increment(d: int): int; Get(): int; Reset(); }"

let boot_two_sites ?seed ?rt_config ?object_cache_capacity () =
  register_counter_unit ();
  Legion.System.boot ?seed ?rt_config ?object_cache_capacity
    ~sites:[ ("uva", 3); ("doe", 3) ]
    ()

let boot_one_site ?seed () =
  register_counter_unit ();
  Legion.System.boot ?seed ~sites:[ ("solo", 2) ] ()

(* Derive a concrete Counter class from LegionObject and return its
   LOID. *)
let make_counter_class sys ctx ?(name = "Counter") () =
  Legion.Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
    ~name ~units:[ counter_unit ] ~idl:counter_idl ()

let int_exn = function
  | Value.Int i -> i
  | v -> Alcotest.failf "expected int, got %s" (Value.to_string v)

let loid_t : Loid.t Alcotest.testable = Alcotest.testable Loid.pp Loid.equal
