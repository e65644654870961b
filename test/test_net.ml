(* Tests for the simulated internetwork. *)

module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Value = Legion_wire.Value
module Prng = Legion_util.Prng

let make_net ?latency () =
  let sim = Engine.create () in
  let net = Network.create ~sim ~prng:(Prng.create ~seed:1L) ?latency () in
  let s0 = Network.add_site net ~name:"s0" in
  let s1 = Network.add_site net ~name:"s1" in
  let h0 = Network.add_host net ~site:s0 ~name:"h0" in
  let h1 = Network.add_host net ~site:s0 ~name:"h1" in
  let h2 = Network.add_host net ~site:s1 ~name:"h2" in
  (sim, net, h0, h1, h2)

let test_topology () =
  let _, net, h0, h1, h2 = make_net () in
  Alcotest.(check int) "sites" 2 (Network.site_count net);
  Alcotest.(check int) "hosts" 3 (Network.host_count net);
  Alcotest.(check int) "site of h0" (Network.site_of net h0) (Network.site_of net h1);
  Alcotest.(check bool) "h2 other site" true
    (Network.site_of net h2 <> Network.site_of net h0);
  Alcotest.(check string) "name" "h2" (Network.host_name net h2);
  Alcotest.(check (list int)) "hosts of site 0" [ h0; h1 ]
    (Network.hosts_of_site net (Network.site_of net h0))

let test_latency_tiers () =
  let _, net, h0, h1, h2 = make_net () in
  let l = Network.default_latency in
  Alcotest.(check (float 1e-12)) "intra-host" l.Network.intra_host
    (Network.latency_between net h0 h0);
  Alcotest.(check (float 1e-12)) "intra-site" l.Network.intra_site
    (Network.latency_between net h0 h1);
  Alcotest.(check (float 1e-12)) "inter-site" l.Network.inter_site
    (Network.latency_between net h0 h2)

let test_delivery_and_timing () =
  let sim, net, h0, _, h2 = make_net () in
  let received = ref None in
  Network.set_receiver net h2 (fun ~src payload -> received := Some (src, payload));
  Network.send net Network.value_codec ~src:h0 ~dst:h2 (Value.Str "hello");
  Alcotest.(check bool) "not yet delivered" true (!received = None);
  Engine.run sim;
  (match !received with
  | Some (src, Value.Str "hello") -> Alcotest.(check int) "src" h0 src
  | _ -> Alcotest.fail "not delivered");
  (* Arrival time within [l, l*(1+jitter)]. *)
  let l = Network.default_latency.Network.inter_site in
  let t = Engine.now sim in
  Alcotest.(check bool) "arrival in jitter window" true
    (t >= l && t <= l *. 1.1 +. 1e-12)

let test_message_counters () =
  let sim, net, h0, h1, h2 = make_net () in
  Network.set_receiver net h0 (fun ~src:_ _ -> ());
  Network.set_receiver net h1 (fun ~src:_ _ -> ());
  Network.set_receiver net h2 (fun ~src:_ _ -> ());
  Network.send net Network.value_codec ~src:h0 ~dst:h0 Value.Unit;
  Network.send net Network.value_codec ~src:h0 ~dst:h1 Value.Unit;
  Network.send net Network.value_codec ~src:h0 ~dst:h2 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "sent" 3 (Network.messages_sent net);
  let ih, is_, ws = Network.messages_by_tier net in
  Alcotest.(check (list int)) "tiers" [ 1; 1; 1 ] [ ih; is_; ws ];
  Alcotest.(check bool) "bytes counted" true (Network.bytes_sent net > 0);
  Alcotest.(check int) "none dropped" 0 (Network.messages_dropped net)

let test_down_host_drops () =
  let sim, net, h0, _, h2 = make_net () in
  let received = ref 0 in
  Network.set_receiver net h2 (fun ~src:_ _ -> incr received);
  Network.set_host_up net h2 false;
  Alcotest.(check bool) "host marked down" false (Network.host_is_up net h2);
  Network.send net Network.value_codec ~src:h0 ~dst:h2 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check int) "counted dropped" 1 (Network.messages_dropped net);
  (* Back up: delivery resumes. *)
  Network.set_host_up net h2 true;
  Network.send net Network.value_codec ~src:h0 ~dst:h2 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "delivered after recovery" 1 !received

let test_down_in_flight () =
  (* The destination dies while the message is in flight: it must be
     lost at arrival time. *)
  let sim, net, h0, _, h2 = make_net () in
  let received = ref 0 in
  Network.set_receiver net h2 (fun ~src:_ _ -> incr received);
  Network.send net Network.value_codec ~src:h0 ~dst:h2 Value.Unit;
  ignore (Engine.schedule sim ~delay:0.001 (fun () -> Network.set_host_up net h2 false));
  Engine.run sim;
  Alcotest.(check int) "lost in flight" 0 !received

let test_down_source_drops () =
  let sim, net, h0, _, h2 = make_net () in
  let received = ref 0 in
  Network.set_receiver net h2 (fun ~src:_ _ -> incr received);
  Network.set_host_up net h0 false;
  Network.send net Network.value_codec ~src:h0 ~dst:h2 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "dead source sends nothing" 0 !received

let test_no_receiver_drops () =
  let sim, net, h0, h1, _ = make_net () in
  Network.send net Network.value_codec ~src:h0 ~dst:h1 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "dropped" 1 (Network.messages_dropped net)

let test_drop_rate () =
  let sim, net, h0, h1, _ = make_net () in
  let received = ref 0 in
  Network.set_receiver net h1 (fun ~src:_ _ -> incr received);
  Network.set_drop_rate net 0.5;
  let n = 2000 in
  for _ = 1 to n do
    Network.send net Network.value_codec ~src:h0 ~dst:h1 Value.Unit
  done;
  Engine.run sim;
  let rate = float_of_int !received /. float_of_int n in
  if abs_float (rate -. 0.5) > 0.05 then Alcotest.failf "delivery rate %f" rate;
  Alcotest.check_raises "bad rate" (Invalid_argument "Network.set_drop_rate")
    (fun () -> Network.set_drop_rate net 1.5)

let test_partition () =
  let sim, net, h0, h1, h2 = make_net () in
  let received = ref 0 in
  Network.set_receiver net h2 (fun ~src:_ _ -> incr received);
  Network.set_receiver net h1 (fun ~src:_ _ -> incr received);
  let s0 = Network.site_of net h0 and s1 = Network.site_of net h2 in
  Network.set_partitioned net s0 s1 true;
  Alcotest.(check bool) "partitioned" true (Network.is_partitioned net s0 s1);
  Alcotest.(check bool) "symmetric" true (Network.is_partitioned net s1 s0);
  Network.send net Network.value_codec ~src:h0 ~dst:h2 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "cross-site lost" 0 !received;
  (* Intra-site unaffected. *)
  Network.send net Network.value_codec ~src:h0 ~dst:h1 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "intra-site flows" 1 !received;
  (* Heal. *)
  Network.set_partitioned net s0 s1 false;
  Network.send net Network.value_codec ~src:h0 ~dst:h2 Value.Unit;
  Engine.run sim;
  Alcotest.(check int) "healed" 2 !received;
  (* Partitioning a site with itself is a no-op. *)
  Network.set_partitioned net s0 s0 true;
  Alcotest.(check bool) "self never partitioned" false
    (Network.is_partitioned net s0 s0)

module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace

(* Property (100 random topologies/fault mixes): the [messages_dropped]
   counter agrees with the Drop events in the structured trace, and
   every Send resolves to exactly one Deliver or Drop once the
   simulation quiesces. *)
let test_drop_accounting_matches_trace () =
  let master = Prng.create ~seed:0xDECAF1L in
  for _iter = 1 to 100 do
    let sim = Engine.create () in
    let obs =
      Recorder.create ~capacity:4096 ~clock:(fun () -> Engine.now sim) ()
    in
    let net = Network.create ~sim ~prng:(Prng.split master) ~obs () in
    let s0 = Network.add_site net ~name:"s0" in
    let s1 = Network.add_site net ~name:"s1" in
    let hosts =
      List.concat_map
        (fun s ->
          List.init 4 (fun i ->
              Network.add_host net ~site:s ~name:(Printf.sprintf "s%d-h%d" s i)))
        [ s0; s1 ]
    in
    List.iter
      (fun h ->
        if Prng.bernoulli master ~p:0.7 then
          Network.set_receiver net h (fun ~src:_ _ -> ()))
      hosts;
    Network.set_drop_rate net (Prng.float master 0.5);
    if Prng.bernoulli master ~p:0.3 then Network.set_partitioned net s0 s1 true;
    List.iter
      (fun h ->
        if Prng.bernoulli master ~p:0.2 then Network.set_host_up net h false)
      hosts;
    let host_arr = Array.of_list hosts in
    let n_hosts = Array.length host_arr in
    let n = 1 + Prng.int master 100 in
    for _ = 1 to n do
      let src = host_arr.(Prng.int master n_hosts) in
      let dst = host_arr.(Prng.int master n_hosts) in
      Network.send net Network.value_codec ~src ~dst Value.Unit
    done;
    Engine.run sim;
    let events = Recorder.events obs in
    let sends = Trace.count_of (Trace.send ()) events in
    let delivers = Trace.count_of (Trace.deliver ()) events in
    let drops = Trace.count_of (Trace.drop ()) events in
    Alcotest.(check int) "Send events match messages_sent"
      (Network.messages_sent net) sends;
    Alcotest.(check int) "Drop events match messages_dropped"
      (Network.messages_dropped net) drops;
    Alcotest.(check int) "every send delivered or dropped" sends
      (delivers + drops)
  done

let test_bad_host_id () =
  let _, net, _, _, _ = make_net () in
  Alcotest.check_raises "bad id" (Invalid_argument "Network: bad host id") (fun () ->
      ignore (Network.host_name net 99))

(* Watchers are deregisterable handles: the repair machinery's
   start/stop cycles must not accumulate dead closures (the
   reconcile_on_heal leak). *)
let test_watcher_deregistration () =
  let _, net, h0, _, _ = make_net () in
  let host_fires = ref 0 and part_fires = ref 0 in
  Alcotest.(check int) "no watchers initially" 0 (Network.watcher_count net);
  let w1 = Network.add_host_watcher net (fun _ ~up:_ -> incr host_fires) in
  let w2 =
    Network.add_partition_watcher net (fun _ _ ~cut:_ -> incr part_fires)
  in
  Alcotest.(check int) "both registered" 2 (Network.watcher_count net);
  Network.set_host_up net h0 false;
  let s0 = Network.site_of net h0 in
  Network.set_partitioned net s0 (s0 + 1) true;
  Alcotest.(check int) "host watcher fired" 1 !host_fires;
  Alcotest.(check int) "partition watcher fired" 1 !part_fires;
  Network.remove_watcher net w1;
  Alcotest.(check int) "one left" 1 (Network.watcher_count net);
  (* The removed watcher stays silent; the other keeps firing. *)
  Network.set_host_up net h0 true;
  Network.set_partitioned net s0 (s0 + 1) false;
  Alcotest.(check int) "removed watcher silent" 1 !host_fires;
  Alcotest.(check int) "remaining watcher fired" 2 !part_fires;
  (* Removal is idempotent; handles are not confused across kinds. *)
  Network.remove_watcher net w1;
  Alcotest.(check int) "double remove is a no-op" 1 (Network.watcher_count net);
  Network.remove_watcher net w2;
  Alcotest.(check int) "all gone" 0 (Network.watcher_count net);
  Network.set_host_up net h0 false;
  Network.set_partitioned net s0 (s0 + 1) true;
  Alcotest.(check int) "no zombie firings (host)" 1 !host_fires;
  Alcotest.(check int) "no zombie firings (partition)" 2 !part_fires

let test_watcher_churn_bounded () =
  let _, net, _, _, _ = make_net () in
  for _ = 1 to 50 do
    let w = Network.add_host_watcher net (fun _ ~up:_ -> ()) in
    let w' = Network.add_partition_watcher net (fun _ _ ~cut:_ -> ()) in
    Network.remove_watcher net w;
    Network.remove_watcher net w'
  done;
  Alcotest.(check int) "churn leaves nothing behind" 0
    (Network.watcher_count net)

let () =
  Alcotest.run "net"
    [
      ( "network",
        [
          Alcotest.test_case "topology" `Quick test_topology;
          Alcotest.test_case "latency tiers" `Quick test_latency_tiers;
          Alcotest.test_case "delivery and timing" `Quick test_delivery_and_timing;
          Alcotest.test_case "message counters" `Quick test_message_counters;
          Alcotest.test_case "down host drops" `Quick test_down_host_drops;
          Alcotest.test_case "down in flight" `Quick test_down_in_flight;
          Alcotest.test_case "down source drops" `Quick test_down_source_drops;
          Alcotest.test_case "no receiver drops" `Quick test_no_receiver_drops;
          Alcotest.test_case "drop rate" `Slow test_drop_rate;
          Alcotest.test_case "site partitions" `Quick test_partition;
          Alcotest.test_case "drop accounting matches trace" `Quick
            test_drop_accounting_matches_trace;
          Alcotest.test_case "bad host id" `Quick test_bad_host_id;
          Alcotest.test_case "watcher deregistration" `Quick
            test_watcher_deregistration;
          Alcotest.test_case "watcher churn leaves no leak" `Quick
            test_watcher_churn_bounded;
        ] );
    ]
