(* The experiment harness: regenerates every experiment in
   EXPERIMENTS.md. The source paper (The Core Legion Object Model, HPDC
   1996) is a design document with no measured evaluation; each table
   here quantifies one of its mechanisms (Figs. 11/17, §4.1–4.3) or
   scalability claims (§5). See EXPERIMENTS.md for the per-table mapping
   and expected shapes.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe e1 e5      # selected experiments *)

let experiments =
  [
    ("e1", "binding resolution path (Fig. 17)", Exp_binding_path.run);
    ("e2", "object->agent traffic vs cache size (5.2.1)", Exp_cache.run);
    ("e3", "binding agent combining tree (5.2.2)", Exp_tree.run);
    ("e4", "class cloning (5.2.2)", Exp_clone.run);
    ("e5", "distributed-systems principle (5.2)", Exp_scale.run);
    ("e6", "lifecycle costs (3.1, Fig. 11)", Exp_lifecycle.run);
    ("e7", "replication availability (4.3)", Exp_replication.run);
    ("e8", "stale bindings under churn (4.1.4)", Exp_stale.run);
    ("e9", "ablation: binding TTL (3.5)", Exp_ttl.run);
    ("e10", "the locality assumption (5.2)", Exp_locality.run);
    ("e11", "ablation: scheduling policies (3.7-3.8)", Exp_sched.run);
    ("e13", "jurisdiction splitting (2.2)", Exp_split.run);
    ("e14", "goodput and retry traffic under message loss (4.1.4)", Exp_faults.run);
    ("e15", "crash recovery: checkpoints, failure detection, fencing", Exp_recover.run);
    ("e16", "overload: admission control, shedding, circuit breakers", Exp_overload.run);
    ("e17", "self-healing replication: repair, fencing, anti-entropy", Exp_repair.run);
    ("e18", "planetary sweep: E2/E3/E4 at 10^5 objects, 10^3 hosts", Exp_planet.run);
    ("e19", "elastic load management under a Zipf flash crowd (3.8, 5.2.2)", Exp_elastic.run);
    ("e20", "atomic multi-object invocations under fault schedules", Exp_txn.run);
    ("e21", "noisy neighbor: per-tenant quotas and fair queuing (2.4)", Exp_tenants.run);
    ("e22", "adversarial chaos exploration with exactly-once effects", Exp_chaos.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) experiments
  in
  let t0 = Unix.gettimeofday () in
  print_endline "Core Legion Object Model -- experiment harness";
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, descr, f) ->
          Printf.printf "\n=== %s: %s ===\n%!" name descr;
          f ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
          exit 1)
    requested;
  Printf.printf "\ncompleted in %.1f s wall clock\n" (Unix.gettimeofday () -. t0)
