(* Each E19, E21 and E22 gate can fail. One real report per gate passes
   every check; breaking one measurement at a time must add exactly one
   line to its [violations]. *)

module Elastic = Legion.Elastic
module Tenants = Legion.Tenants
module Explorer = Legion_chaos.Explorer

let check_breaks violations base breaks =
  Alcotest.(check (list string)) "the real report passes" [] (violations base);
  List.iter
    (fun (label, broken) ->
      Alcotest.(check int)
        (label ^ " adds one violation")
        1
        (List.length (violations broken)))
    breaks

(* --- E19 --- *)

(* Seed 1009: one of the seeds where the host-share gate holds today
   (ROADMAP item 6), so every gate starts green. *)
let test_e19 () =
  let r = Elastic.run { Elastic.seed = 1009L } in
  let b = r.Elastic.baseline and e = r.Elastic.elastic in
  let elastic f = { r with Elastic.elastic = f e } in
  check_breaks Elastic.violations r
    [
      ("a nondeterministic re-run", { r with Elastic.deterministic = false });
      ( "no flash speed-up",
        elastic (fun e ->
            { e with Elastic.flash_p50_ms = b.Elastic.flash_p50_ms }) );
      ( "no flatter host share",
        elastic (fun e ->
            { e with Elastic.max_host_share = b.Elastic.max_host_share }) );
      ("an elastic error", elastic (fun e -> { e with Elastic.errors = 1 }));
      ( "a baseline error",
        { r with Elastic.baseline = { b with Elastic.errors = 1 } } );
      ("no clone", elastic (fun e -> { e with Elastic.clones = 0 }));
      ("no merge", elastic (fun e -> { e with Elastic.merges = 0 }));
      ("no migration", elastic (fun e -> { e with Elastic.moves = 0 }));
      ("no split", elastic (fun e -> { e with Elastic.splits = 0 }));
      ("no re-tier", elastic (fun e -> { e with Elastic.retier = false }));
      ( "an adapting baseline",
        { r with Elastic.baseline = { b with Elastic.moves = 1 } } );
    ]

(* --- E21 --- *)

let test_e21 () =
  let r = Tenants.run Tenants.default in
  let q = r.Tenants.quiet and n = r.Tenants.noisy in
  let lane name f (a : Tenants.arm) =
    {
      a with
      Tenants.lanes =
        List.map
          (fun (l : Tenants.lane) ->
            if String.equal l.Tenants.tenant name then f l else l)
          a.Tenants.lanes;
    }
  in
  let quiet f = { r with Tenants.quiet = f q }
  and noisy f = { r with Tenants.noisy = f n } in
  check_breaks Tenants.violations r
    [
      ("a nondeterministic re-run", { r with Tenants.deterministic = false });
      ( "a moved p99",
        noisy
          (lane "alpha" (fun l ->
               { l with Tenants.p99_ms = l.Tenants.p99_ms +. 100.0 })) );
      ( "a shed blamed on someone else",
        noisy (fun n ->
            {
              n with
              Tenants.shed_by_offender = n.Tenants.shed_by_offender - 1;
            }) );
      ( "an untagged shed",
        noisy (fun n -> { n with Tenants.shed_unattributed = 1 }) );
      ( "an eve probe not denied",
        quiet (fun q ->
            { q with Tenants.eve_denied = q.Tenants.eve_denied - 1 }) );
      ( "a binding for eve",
        noisy (fun n -> { n with Tenants.eve_bindings = 1 }) );
      ("no Deny event", quiet (fun q -> { q with Tenants.deny_by_eve = 0 }));
      ( "a missing lane",
        quiet (fun q ->
            {
              q with
              Tenants.lanes =
                List.filter
                  (fun (l : Tenants.lane) -> l.Tenants.tenant <> "beta")
                  q.Tenants.lanes;
            }) );
      ( "a well-behaved quota shed",
        quiet (lane "beta" (fun l -> { l with Tenants.quota_shed = 1 })) );
      ( "a well-behaved error",
        noisy (lane "gamma" (fun l -> { l with Tenants.errors = 1 })) );
    ]

(* --- E22 --- *)

let test_e22 () =
  let r = Explorer.run { Explorer.default with schedules = 2; rounds = 6 } in
  let on = r.Explorer.dup_on and off = r.Explorer.dup_off in
  let failing =
    { on with Explorer.violations = [ "op op-r1-1 applied 2 times" ] }
  in
  let sch = Explorer.dup_heavy ~seed:62L in
  check_breaks Explorer.violations r
    [
      ( "a failing fleet schedule",
        { r with Explorer.failures = [ (1, sch, failing) ] } );
      ( "a nondeterministic fleet schedule",
        { r with Explorer.nondeterministic = [ (1, "{}", "{ }") ] } );
      ("a failing dedup-on run", { r with Explorer.dup_on = failing });
      ( "no dedup hits",
        { r with Explorer.dup_on = { on with Explorer.dedup_hits = 0 } } );
      ( "no duplicates injected",
        { r with Explorer.dup_on = { on with Explorer.duplicated = 0 } } );
      ( "a blind detector",
        { r with Explorer.dup_off = { off with Explorer.double_applies = 0 } }
      );
      ( "a nondeterministic dup-heavy run",
        { r with Explorer.dup_deterministic = false } );
    ]

let () =
  Alcotest.run "gates"
    [
      ( "breaks",
        [
          Alcotest.test_case "E19" `Slow test_e19;
          Alcotest.test_case "E21" `Slow test_e21;
          Alcotest.test_case "E22" `Slow test_e22;
        ] );
    ]
