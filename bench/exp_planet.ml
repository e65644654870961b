(* E18 — planetary sweep (§5 at scale).

   Drives Legion.Planet: the E2/E3/E4 mechanism kernels at 10^5
   objects over 10^3 hosts plus a raw event-heap kernel at 10^7
   events, then gates on wall-clock throughput (events/sec) and peak
   RSS so a simulator-core regression (the event heap, the routing
   tables) fails the harness instead of silently making every future
   sweep slower. Writes BENCH_E18.json.

   E18_PROFILE=smoke picks the CI-sized config and its floors (default
   full); `legion-sim scale` runs the same kernels at any size. *)

open Exp_common
module Planet = Legion.Planet

(* The config and its wall-clock floors (raw queue kernel, whole sweep,
   events/s) for each profile. *)
let profile () =
  match Sys.getenv_opt "E18_PROFILE" with
  | Some "smoke" -> (Planet.smoke, 100_000.0, 50_000.0)
  | _ -> (Planet.default, 300_000.0, 10_000.0)

let max_rss_mb = 8192.0

(* Peak RSS in MiB from /proc/self/status (Linux); None elsewhere. *)
let peak_rss_mb () =
  if not (Sys.file_exists "/proc/self/status") then None
  else
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
                    float_of_int kb /. 1024.0)
              else scan ()
        in
        scan ())

let run () =
  let cfg, min_queue_eps, min_eps = profile () in
  let t0 = Unix.gettimeofday () in
  let tq0 = t0 in
  let queue_wall = ref 0.0 in
  let progress msg =
    (* The queue kernel reports first; time it separately for its gate. *)
    if !queue_wall = 0.0 && String.length msg >= 5 && String.sub msg 0 5 = "queue"
    then queue_wall := Unix.gettimeofday () -. tq0;
    Printf.printf "  [e18] %s\n%!" msg
  in
  let report = Planet.run ~progress cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let queue_events =
    match report.Planet.kernels with k :: _ -> k.Planet.k_events | [] -> 0
  in
  let queue_eps =
    float_of_int queue_events /. Float.max 1e-9 !queue_wall
  in
  let eps = float_of_int report.Planet.total_events /. Float.max 1e-9 wall in
  let rss = peak_rss_mb () in
  Planet.print report;
  Printf.printf
    "total: %d events in %.1f s wall = %.0f events/s (queue kernel %.0f/s); \
     peak RSS %s MB\n"
    report.Planet.total_events wall eps queue_eps
    (match rss with None -> "n/a" | Some m -> Printf.sprintf "%.0f" m);
  let json =
    Printf.sprintf
      "{\"deterministic\": %s, \"wall_s\": %.3f, \"events_per_sec\": %.0f, \
       \"queue_events_per_sec\": %.0f, \"peak_rss_mb\": %s, \"gates\": \
       {\"min_queue_eps\": %.0f, \"min_eps\": %.0f, \"max_rss_mb\": %.0f}}"
      (Planet.to_json report) wall eps queue_eps
      (match rss with None -> "null" | Some m -> Printf.sprintf "%.1f" m)
      min_queue_eps min_eps max_rss_mb
  in
  write_bench_json ~file:"BENCH_E18.json" json;
  let fail_if cond fmt =
    Printf.ksprintf (fun m -> if cond then [ "E18: " ^ m ] else []) fmt
  in
  gate
    (fail_if (queue_eps < min_queue_eps)
       "queue kernel %.0f events/s < floor %.0f" queue_eps min_queue_eps
    @ fail_if (eps < min_eps) "sweep %.0f events/s < floor %.0f" eps min_eps
    @
    match rss with
    | Some m ->
        fail_if (m > max_rss_mb) "peak RSS %.0f MB > ceiling %.0f MB" m
          max_rss_mb
    | None -> [])
