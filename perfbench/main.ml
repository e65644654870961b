(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs rounds of the named workload for about S host seconds and
   prints, as the last line of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 a traced run prints
   the per-layer ones and writes its spans under perfbench/_out/.
   See perfbench/README.md for what each workload and metric is for. *)

open Fixture

let workloads =
  [
    ("warm_zipf", Warm_zipf.run);
    ("cold_fill", Cold_fill.run);
    ("durable_churn", Durable_churn.run);
  ]

let min_rounds = 3

let usage () =
  prerr_endline
    "usage: main.exe --workload warm_zipf|cold_fill|durable_churn --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.assoc_opt !workload workloads with
  | None -> usage ()
  | Some run -> (!workload, run, !seed, !seconds, !trace = 1)

(* Rounds until the time is used (at least [min_rounds]). *)
let rounds run ~seed ~seconds =
  let t0 = Probe.now_ns () in
  let rec loop acc =
    Gc.compact ();
    let acc = run ~seed ~traced:false :: acc in
    let n = List.length acc in
    let elapsed = Probe.seconds_since t0 in
    if n >= min_rounds && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds
    then List.rev acc
    else loop acc
  in
  loop []

(* --- Output --- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let print_table rows =
  List.iter
    (fun (name, unit, v, n) -> Printf.printf "  %-30s %16.6g %-6s n=%d\n" name v unit n)
    rows

let consistency (rs : Round.t list) =
  let r0 = List.hd rs in
  List.concat_map (fun (r : Round.t) -> r.violations) rs
  @ List.filter_map
      (fun (r : Round.t) ->
        if r.digest <> r0.digest then
          Some ("a repeated round of the same seed gave another digest: " ^ r.digest)
        else None)
      rs

let report_checks name seed (r0 : Round.t) problems =
  Printf.printf "workload %s seed %d\n" name seed;
  Printf.printf "digest %s\n" r0.digest;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  List.iter
    (fun (row, got) ->
      match List.assoc_opt row Pinned.table with
      | Some want when want <> got ->
          Printf.printf "PROTOCOL CHANGE: %s = %d messages (pinned %d)\n" row got want
      | _ -> Printf.printf "count %s = %d\n" row got)
    r0.table

let ops (r : Round.t) = float_of_int (r.attempted - r.failed)

let end_to_end name seed seconds run =
  let rs = rounds run ~seed ~seconds in
  let r0 = List.hd rs in
  let problems = consistency rs in
  report_checks name seed r0 problems;
  (* Host times are scaled to the nominal machine speed by the reference
     measured around each round's measured phase (see Probe). *)
  let speed (r : Round.t) = r.ref_s /. Probe.nominal_reference_s in
  let rate (r : Round.t) = ops r /. r.measure_s in
  let med f = median (Array.of_list (List.map f rs)) in
  let attempted = List.fold_left (fun a (r : Round.t) -> a + r.attempted) 0 rs in
  let failed = List.fold_left (fun a (r : Round.t) -> a + r.failed) 0 rs in
  let nlat = Array.length r0.lat_ms in
  let rows =
    [
      ("ops_per_s", "1/s", med (fun r -> rate r *. speed r), List.length rs);
      ("setup_s", "s", med (fun r -> r.setup_s /. speed r), List.length rs);
      ("peak_rss_mb", "MB", Probe.peak_rss_mb (), 1);
      ("virt_p50_ms", "ms", median r0.lat_ms, nlat);
      ("virt_p99_ms", "ms", percentile r0.lat_ms 99.0, nlat);
      ("msgs_per_op", "count", per r0.delta.msgs r0.attempted, r0.attempted);
      ( "ok_frac",
        "ratio",
        float_of_int (r0.attempted - r0.failed) /. float_of_int (Stdlib.max 1 r0.attempted),
        r0.attempted );
    ]
  in
  Printf.printf "rounds %d, generator lateness %.6f ms, failed %d of %d\n"
    (List.length rs) r0.late_ms r0.failed r0.attempted;
  List.iteri
    (fun i (r : Round.t) ->
      Printf.printf
        "  round %d: setup %.4f s, measured %.4f s, %.1f ops/s; reference %.6f s, \
         so at nominal speed setup %.4f s, %.1f ops/s\n"
        i r.setup_s r.measure_s (rate r) r.ref_s (r.setup_s /. speed r) (rate r *. speed r))
    rs;
  print_table rows;
  print_result ~correct:(problems = []) ~attempted ~failed
    (List.map (fun (n, u, v, _) -> (n, u, v)) rows)

let per_layer name seed run =
  (* The same round untraced, then traced: identical simulations, so
     the difference in host time is the cost of tracing. *)
  Gc.compact ();
  let a = run ~seed ~traced:false in
  Gc.compact ();
  Probe.reset ();
  Probe.on := true;
  let b = run ~seed ~traced:true in
  let replay =
    Replay.wire b.Round.payloads
    @ Replay.naming b.loid_seq ~capacity:b.cache_capacity
    @ Replay.engine b.delays
    @ Replay.rpc ()
  in
  Probe.on := false;
  let problems = consistency [ a; b ] in
  report_checks name seed a problems;
  let file = Printf.sprintf "perfbench/_out/spans-%s-seed%d.jsonl" name seed in
  Probe.write ~file;
  Printf.printf "spans written to %s\n" file;
  let d = a.delta and ops = a.attempted in
  let lookups, hits, evictions = a.cache in
  let x key = Option.value ~default:0.0 (List.assoc_opt key replay) in
  let extra key = Option.value ~default:0.0 (List.assoc_opt key a.extra) in
  let table key =
    float_of_int (Option.value ~default:0 (List.assoc_opt key a.table))
  in
  let changed =
    List.length
      (List.filter
         (fun (row, got) ->
           match List.assoc_opt row Pinned.table with
           | Some want -> want <> got
           | None -> false)
         a.table)
  in
  let create_us = a.create_us and cold_us = a.cold_us in
  let metrics =
    [
      ("legion.boot_s", "s", a.boot_s);
      ("legion.create_us_p50", "us", median create_us);
      ("legion.create_late_early", "ratio", late_early create_us);
      ("sim.events_per_op", "count", per d.events ops);
      ("sim.ns_per_event", "ns", a.measure_s *. 1e9 /. float_of_int (Stdlib.max 1 d.events));
      ("sim.bare_ns_per_event", "ns", x "sim.bare_ns_per_event");
      ("sim.bare_words_per_event", "words", x "sim.bare_words_per_event");
      ("sim.gen_late_ms", "ms", a.late_ms);
      ("net.msgs_per_op.host", "count", per d.m_host ops);
      ("net.msgs_per_op.site", "count", per d.m_site ops);
      ("net.msgs_per_op.wan", "count", per d.m_wan ops);
      ("net.bytes_per_op", "B", per d.bytes ops);
      ("net.drops_per_op", "count", per d.drops ops);
      ("net.dups_per_op", "count", per d.dups ops);
      ("wire.encode_ns", "ns", x "wire.encode_ns");
      ("wire.encode_words", "words", x "wire.encode_words");
      ("wire.decode_ns", "ns", x "wire.decode_ns");
      ("wire.decode_words", "words", x "wire.decode_words");
      ("wire.seal_ns", "ns", x "wire.seal_ns");
      ("wire.seal_words", "words", x "wire.seal_words");
      ("wire.unseal_ns", "ns", x "wire.unseal_ns");
      ("wire.unseal_words", "words", x "wire.unseal_words");
      ("wire.size_bytes_ns", "ns", x "wire.size_bytes_ns");
      ("wire.size_bytes_words", "words", x "wire.size_bytes_words");
      ("wire.payload_bytes", "B", x "wire.payload_bytes");
      ("naming.hit_rate", "ratio", per hits lookups);
      ("naming.evictions_per_op", "count", per evictions ops);
      ("naming.find_ns", "ns", x "naming.find_ns");
      ("naming.find_words", "words", x "naming.find_words");
      ("rt.sheds_per_op", "count", per d.sheds ops);
      ("rt.retries_per_op", "count", per b.retries ops);
      ("rt.rebinds_per_op", "count", per b.rebinds ops);
      ("rt.dedup_hits_per_op", "count", per d.dedup ops);
      ("rt.wait_ms_p99", "ms", percentile b.wait_ms 99.0);
      ("rt.rpc_ns", "ns", x "rt.rpc_ns");
      ("rt.rpc_words", "words", x "rt.rpc_words");
      ("rt.rpc_ns.admission", "ns", x "rt.rpc_ns.admission");
      ("rt.rpc_ns.tenants", "ns", x "rt.rpc_ns.tenants");
      ("rt.rpc_ns.dedup", "ns", x "rt.rpc_ns.dedup");
      ("rt.rpc_ns.breaker", "ns", x "rt.rpc_ns.breaker");
      ("app.handler_ns", "ns", Probe.self_ns_per_span "app.handler");
      ("binding.rq_per_op", "count", per d.rq_agent ops);
      ("core.rq_per_op", "count", per d.rq_class ops);
      ("jurisdiction.rq_per_op", "count", per d.rq_mag ops);
      ("host.rq_per_op", "count", per d.rq_host ops);
      ("binding.resolve_ms_p50", "ms", a.resolve_ms_p50);
      ("host.cold_call_us_p50", "us", median cold_us);
      ("host.cold_call_us_p99", "us", percentile cold_us 99.0);
      ("host.cold_late_early", "ratio", if cold_us = [||] then 0.0 else late_early cold_us);
      ("store.disk_writes_per_op", "count", per d.disk_writes ops);
      ("store.bytes_end", "B", extra "store.bytes_end");
      ("store.files_end", "count", extra "store.files_end");
      ("txn.commits", "count", extra "txn.commits");
      ("txn.aborts", "count", extra "txn.aborts");
      ("txn.msgs_per_commit", "count", table "msgs_2pc_commit");
      ("alloc.minor_words_per_op", "words", d.minor /. float_of_int (Stdlib.max 1 ops));
      ("alloc.major_words_per_op", "words", d.major /. float_of_int (Stdlib.max 1 ops));
      ("trace.overhead", "ratio", (b.measure_s /. a.measure_s) -. 1.0);
      ("count.msgs_cold_binding", "count", table "msgs_cold_binding");
      ("count.msgs_warm_call", "count", table "msgs_warm_call");
      ("count.msgs_create", "count", table "msgs_create");
      ("count.msgs_2pc_commit", "count", table "msgs_2pc_commit");
      ("count.changed", "count", float_of_int changed);
    ]
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-30s %16.6g %s\n" n v u) metrics;
  print_result ~correct:(problems = []) ~attempted:(a.attempted + b.attempted)
    ~failed:(a.failed + b.failed) metrics

let () =
  let name, run, seed, seconds, traced = parse_args () in
  if traced then per_layer name seed run else end_to_end name seed seconds run
