(* E3 — The k-ary Binding Agent combining tree (§5.2.2).

   "By constructing a k-ary tree of Binding Agents, eliminating traffic
   from 'leaf' Binding Agents to LegionClass, we can arbitrarily reduce
   the load placed on LegionClass."

   Fixture: 16 leaf Binding Agents with cold caches, each asked to
   resolve the same 24 class objects. Tree configurations: flat (every
   leaf resolves through LegionClass itself) and combining trees of
   fan-out k ∈ {2, 4} (leaves forward class lookups to parents, parents
   to grandparents, the roots resolve).

   Expected shape: requests arriving at LegionClass shrink roughly by
   the number of leaves per root as the tree deepens — the root layer
   absorbs and deduplicates the miss traffic. *)

open Exp_common
module Binding = Legion_naming.Binding
module Agent_tree = Legion.Agent_tree

let n_leaves = 16
let n_classes = 24

let build_tree sys ~fanout ~levels =
  let tree =
    Agent_tree.build sys
      ~hosts:(System.site sys 0).System.net_hosts
      ~fanout:(Stdlib.max 1 fanout) ~levels ~n_leaves
  in
  tree.Agent_tree.leaves

let run_config ~label ~fanout ~levels =
  register_units ();
  let sys = System.boot ~seed:5L ~sites:[ ("site", 8) ] () in
  let ctx = System.client sys () in
  (* A population of classes to resolve. *)
  let classes =
    List.init n_classes (fun i ->
        make_counter_class sys ctx ~name:(Printf.sprintf "C%d" i) ())
  in
  let leaves = build_tree sys ~fanout ~levels in
  let before = snapshot sys in
  let msgs0 = Legion_net.Network.messages_sent (System.net sys) in
  (* Every leaf resolves every class, cold. *)
  List.iter
    (fun leaf ->
      List.iter
        (fun cls ->
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
          | Error e -> failwith ("tree resolve failed: " ^ Err.to_string e))
        classes)
    leaves;
  let after = snapshot sys in
  let msgs1 = Legion_net.Network.messages_sent (System.net sys) in
  (* LegionClass's request counter: the metaclass proc lives in group
     "class" under the well-known LOID name; count its requests only. *)
  let legion_class_rq =
    let name_prefix = Loid.to_string Well_known.legion_class ^ "@" in
    let value_of snap =
      List.fold_left
        (fun acc (g, n, v) ->
          if
            g = Well_known.kind_class
            && String.length n >= String.length name_prefix
            && String.sub n 0 (String.length name_prefix) = name_prefix
          then acc + v
          else acc)
        0 snap
    in
    value_of after - value_of before
  in
  let lookups = n_leaves * n_classes in
  [
    label;
    fmt_i lookups;
    fmt_i legion_class_rq;
    fmt_f (float_of_int legion_class_rq /. float_of_int lookups);
    fmt_i (msgs1 - msgs0);
  ]

let run () =
  let rows =
    [
      run_config ~label:"flat (no tree)" ~fanout:1 ~levels:0;
      run_config ~label:"fan-out 4, depth 1" ~fanout:4 ~levels:1;
      run_config ~label:"fan-out 2, depth 2" ~fanout:2 ~levels:2;
      run_config ~label:"fan-out 4, depth 2" ~fanout:4 ~levels:2;
    ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E3  Combining tree shields LegionClass (%d leaves x %d class lookups)"
         n_leaves n_classes)
    ~header:
      [ "configuration"; "lookups"; "LegionClass rq"; "LC rq/lookup"; "total msgs" ]
    rows
