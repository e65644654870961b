(* cold_fill — the placement path.

   The population is created inert during set-up. The measured phase is
   a closed loop with one outstanding call, and every call is the first
   touch of an inert object, so each one takes the full Fig. 17 cold
   path: the client's Binding Agent, the class (GetBinding), the
   Magistrate (Activate) and a Host Object (Activate), while the hosts'
   resident sets grow into the thousands. The client's cache never
   hits: each target is new to it. *)

open Fixture

let sites = [ ("a", 3) ]
let objects = 4500

let run ~seed ~traced =
  let t_round = Probe.now_ns () in
  service := 0.0;
  let t_boot = Probe.now_ns () in
  let sys = boot ~seed:(Int64.of_int seed) sites in
  let boot_s = Probe.seconds_since t_boot in
  let setup = System.client sys () in
  let cls = derive sys setup "PerfCounter" in
  let loids, create_us, create_msgs = populate sys setup ~cls ~eager:false objects in
  let ctx = client sys ~site:0 ~cache_capacity:None in
  let order = Array.init objects Fun.id in
  Prng.shuffle (Prng.create ~seed:(Int64.of_int ((seed * 104729) + 7))) order;
  Engine.run (System.sim sys);
  let setup_s = Probe.seconds_since t_round in
  let capture = if traced then Some (Round.start_capture sys ~seed:(Int64.of_int seed)) else None in
  let tally = Round.tally () in
  let net = System.net sys in
  let lat = Array.make objects 0.0 and cold_us = Array.make objects 0.0 in
  let msgs = Array.make objects 0 in
  let dues = Hashtbl.create 1024 in
  let failed = ref 0 and first_error = ref None in
  let c0 = counts sys and k0 = cache_stats [| ctx |] in
  let ref0 = Probe.reference_s () in
  let t_measure = Probe.now_ns () in
  for i = 0 to objects - 1 do
    let dst = loids.(order.(i)) in
    let m0 = Network.messages_sent net in
    let mark = Recorder.total (System.obs sys) in
    let due = System.now sys in
    let t0 = Probe.now_ns () in
    let r =
      Probe.span "rt.call" (fun () ->
          Api.call sys ctx ~dst ~meth:"Increment" ~args:[ Value.Int 1; Value.Int (i + 1) ])
    in
    cold_us.(i) <- Probe.ns_between t0 (Probe.now_ns ()) *. 1e-3;
    lat.(i) <- (System.now sys -. due) *. 1000.0;
    msgs.(i) <- Network.messages_sent net - m0;
    if traced then begin
      Round.count_since sys tally mark;
      Hashtbl.replace dues (i + 1) due
    end;
    match r with
    | Ok _ -> ()
    | Error e ->
        incr failed;
        if !first_error = None then first_error := Some (Err.to_string e)
  done;
  Round.drain sys ~traced ~tally ();
  let measure_s = Probe.seconds_since t_measure in
  let ref_s = Float.min ref0 (Probe.reference_s ()) in
  let c1 = counts sys and k1 = cache_stats [| ctx |] in
  let payloads, delays =
    match capture with Some c -> Round.stop_capture sys c | None -> ([||], [||])
  in
  let acked = objects - !failed in
  let violations =
    (match !first_error with
    | Some e -> [ Printf.sprintf "%d cold calls failed (first: %s)" !failed e ]
    | None -> [])
    @ Round.check_sum sys ctx loids ~acked
  in
  let median_int a = int_of_float (median (Array.map float_of_int a)) in
  let l0, h0, e0 = k0 and l1, h1, e1 = k1 in
  {
    Round.blank with
    setup_s;
    boot_s;
    create_us;
    measure_s;
    ref_s;
    attempted = objects;
    failed = !failed;
    lat_ms = lat;
    delta = diff c0 c1;
    cache = (l1 - l0, h1 - h0, e1 - e0);
    cold_us;
    resolve_ms_p50 = Round.resolve_ms_p50 sys;
    table =
      [ ("msgs_cold_binding", median_int msgs); ("msgs_create", median_int create_msgs) ];
    violations;
    digest = digest sys;
    retries = tally.n_retry;
    rebinds = tally.n_rebind;
    wait_ms = Round.waits dues;
    payloads;
    delays;
    loid_seq = Array.map (fun i -> loids.(i)) order;
    cache_capacity = objects;
  }
