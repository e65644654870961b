(* Shared machinery for the experiment harness: a counter-class fixture,
   workload generation, counter snapshots, and table rendering.

   Every experiment prints a self-contained table; EXPERIMENTS.md maps
   each to the claim in the paper it regenerates. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Stats = Legion_util.Stats
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module System = Legion.System
module Api = Legion.Api

(* --- The benchmark application unit: the standard counter. --- *)

let counter_unit = Legion_objects.Std_parts.counter_unit
let register_units = Legion_objects.Std_parts.register_counter

let make_counter_class sys ctx ?(name = "Counter") () =
  Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name
    ~units:[ counter_unit ] ~idl:Legion_objects.Std_parts.counter_idl ()

(* --- Counter-registry snapshots: the §5 instrument. --- *)

type snapshot = (string * string * int) list  (* group, name, value *)

let snapshot sys : snapshot =
  List.map
    (fun c -> (Counter.group c, Counter.name c, Counter.value c))
    (Counter.Registry.all (System.registry sys))

let delta_group (before : snapshot) (after : snapshot) group =
  let value_of snap g n =
    match List.find_opt (fun (g', n', _) -> g = g' && n = n') snap with
    | Some (_, _, v) -> v
    | None -> 0
  in
  List.fold_left
    (fun acc (g, n, v) -> if g = group then acc + v - value_of before g n else acc)
    0 after

let max_delta_group (before : snapshot) (after : snapshot) group =
  let value_of snap g n =
    match List.find_opt (fun (g', n', _) -> g = g' && n = n') snap with
    | Some (_, _, v) -> v
    | None -> 0
  in
  List.fold_left
    (fun acc (g, n, v) ->
      if g = group then Stdlib.max acc (v - value_of before g n) else acc)
    0 after

(* --- Zipf-distributed target selection (popularity skew). --- *)

let zipf_sampler prng ~n ~s =
  let z = Legion_util.Sampler.zipf prng ~n ~s in
  fun () -> Legion_util.Sampler.zipf_draw z

(* --- Table rendering. --- *)

let print_table = Legion_util.Table.print

let fmt_ms t = Printf.sprintf "%.2f" (t *. 1000.0)
let fmt_f f = Printf.sprintf "%.3f" f
let fmt_i = string_of_int

(* --- Machine-readable results for CI artifacts. --- *)

let write_bench_json ~file json =
  Out_channel.with_open_text file (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "wrote %s\n" file

(* A gate's verdict: each violation on stderr, and exit 1 if any. *)
let gate = function
  | [] -> ()
  | vs ->
      flush stdout;
      List.iter prerr_endline vs;
      exit 1

(* --- Timing one synchronous call in virtual time. --- *)

let timed_call sys ctx ~dst ~meth ~args =
  let t0 = System.now sys in
  let r = Api.call sys ctx ~dst ~meth ~args in
  (r, System.now sys -. t0)
