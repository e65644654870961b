(* Trace-assertion tests for the §4.1 binding protocol: the cold,
   warm and stale-binding sequences of Fig. 17 checked as structured
   event subsequences on a two-site system, plus unit tests for the
   Trace combinators and the Recorder ring buffer.

   The protocol assertions are sequence-shaped, not timing-shaped, so
   they hold for any seed; LEGION_TRACE_SEED (see test/dune) sweeps the
   boot seed to back that up. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module System = Legion.System
module Api = Legion.Api
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module H = Helpers

let seed =
  match Sys.getenv_opt "LEGION_TRACE_SEED" with
  | Some s -> Int64.of_string s
  | None -> 42L

let setup () =
  let sys = H.boot_two_sites ~seed () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls () in
  (sys, ctx, obj)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Err.to_string e)

let assert_holds m events =
  match Trace.explain m events with
  | None -> ()
  | Some msg ->
      Alcotest.failf "trace mismatch: %s\ntrace was:\n%s" msg
        (String.concat "\n"
           (List.map (fun e -> Format.asprintf "  %a" Event.pp e) events))

(* §4.1/Fig. 17 cold path: nobody has the binding, so the reference
   walks comm layer -> Binding Agent -> class, activates the inert
   object, installs the fresh binding and only then performs the call. *)
let test_cold_path () =
  let sys, ctx, obj = setup () in
  let obs = System.obs sys in
  let client = Runtime.proc_loid ctx.Runtime.self in
  let agent = (System.site sys 0).System.agent in
  Recorder.clear obs;
  let v = ok_or_fail "cold Get" (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]) in
  Alcotest.(check int) "fresh counter reads 0" 0 (H.int_exn v);
  let events = Recorder.events obs in
  assert_holds
    Trace.(
      within 5.0
        (seq
           [
             matches ~label:"client comm-layer miss"
               (cache_miss ~owner:client ~target:obj ());
             matches ~label:"client resolves via its agent"
               (resolve ~owner:client ~target:obj ~stale:false ());
             matches ~label:"GetBinding reaches the agent"
               (call ~src:client ~meth:"GetBinding" ());
             matches ~label:"agent misses too"
               (cache_miss ~owner:agent ~target:obj ());
             matches ~label:"object activates" (activate ~loid:obj ());
             matches ~label:"client installs the binding"
               (binding_install ~owner:client ~target:obj ());
             matches ~label:"the real call"
               (call ~src:client ~dst:obj ~meth:"Get" ());
             matches ~label:"delivered" (deliver ());
             matches ~label:"ok reply" (reply ~ok:true ());
           ]))
    events;
  Alcotest.(check int) "no client cache hit on a cold path" 0
    (Trace.count_of (Trace.cache_hit ~owner:client ()) events);
  Alcotest.(check int) "no rebind on a cold path" 0
    (Trace.count_of (Trace.rebind ()) events)

(* §5.1: with a warm client cache the whole exchange is two messages —
   no resolution machinery runs at all. *)
let test_warm_path () =
  let sys, ctx, obj = setup () in
  let obs = System.obs sys in
  let client = Runtime.proc_loid ctx.Runtime.self in
  ignore (ok_or_fail "first Get" (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]));
  Recorder.clear obs;
  ignore (ok_or_fail "warm Get" (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]));
  let events = Recorder.events obs in
  assert_holds
    Trace.(
      seq
        [
          matches ~label:"client cache hit"
            (cache_hit ~owner:client ~target:obj ());
          matches ~label:"direct call" (call ~src:client ~dst:obj ~meth:"Get" ());
          matches ~label:"delivered" (deliver ());
          matches ~label:"ok reply" (reply ~ok:true ());
        ])
    events;
  Alcotest.(check int) "no resolution" 0
    (Trace.count_of (Trace.resolve ()) events);
  Alcotest.(check int) "no cache miss anywhere" 0
    (Trace.count_of (Trace.cache_miss ()) events);
  Alcotest.(check int) "two messages with a warm client cache" 2
    (Trace.count_of (Trace.send ()) events)

(* §4.1.4/§5.3 stale binding: the object went inert, the cached binding
   points at a dead placement; the comm layer sees the delivery failure,
   refreshes through the agent (GetBinding stale form), the object
   reactivates and the retried call succeeds with saved state. *)
let test_stale_binding_rebind () =
  let sys, ctx, obj = setup () in
  let obs = System.obs sys in
  let client = Runtime.proc_loid ctx.Runtime.self in
  ignore
    (ok_or_fail "increment"
       (Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 7 ]));
  (* Whichever Magistrate holds the placement deactivates it; the others
     refuse harmlessly. *)
  List.iter
    (fun m ->
      ignore (Api.call sys ctx ~dst:m ~meth:"Deactivate" ~args:[ Loid.to_value obj ]))
    (System.magistrates sys);
  Alcotest.(check bool) "object is inert" true
    (Runtime.find_proc (System.rt sys) obj = None);
  Recorder.clear obs;
  let v = ok_or_fail "Get after deactivation" (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]) in
  Alcotest.(check int) "state survived deactivation" 7 (H.int_exn v);
  let events = Recorder.events obs in
  assert_holds
    Trace.(
      seq
        [
          matches ~label:"stale binding served from cache"
            (cache_hit ~owner:client ~target:obj ());
          matches ~label:"call against the stale binding"
            (call ~src:client ~dst:obj ~meth:"Get" ());
          matches ~label:"delivery failure comes back" (reply ~ok:false ());
          matches ~label:"rebind-and-retry kicks in"
            (rebind ~owner:client ~target:obj ~attempt:1 ());
          matches ~label:"refresh resolution carries the stale binding"
            (resolve ~owner:client ~target:obj ~stale:true ());
          matches ~label:"object reactivates" (activate ~loid:obj ());
          matches ~label:"fresh binding installed"
            (binding_install ~owner:client ~target:obj ());
          matches ~label:"retried call"
            (call ~src:client ~dst:obj ~meth:"Get" ());
          matches ~label:"ok reply" (reply ~ok:true ());
        ])
    events

(* --- combinator semantics on a synthetic trace --- *)

let l1 = Loid.make ~class_id:7L ~class_specific:1L ()
let l2 = Loid.make ~class_id:7L ~class_specific:2L ()
let ev t kind = { Event.time = t; host = None; site = None; kind }

let synthetic =
  [
    ev 0.0 (Event.Cache_miss { owner = l1; target = l2 });
    ev 1.0 (Event.Send { src = 0; dst = 1; bytes = 10; tier = Event.Intra_site });
    ev 2.0 (Event.Deliver { src = 0; dst = 1 });
    ev 3.0 (Event.Reply { id = 1; ok = true });
  ]

let test_combinators () =
  let open Trace in
  (* Order is enforced: Deliver cannot precede Send. *)
  Alcotest.(check bool) "in order" true
    (holds (seq [ matches (send ()); matches (deliver ()) ]) synthetic);
  Alcotest.(check bool) "out of order fails" false
    (holds (seq [ matches (deliver ()); matches (send ()) ]) synthetic);
  (* [next] is strict where [matches] skips. *)
  Alcotest.(check bool) "matches skips" true
    (holds (then_ (matches (send ())) (matches (reply ()))) synthetic);
  Alcotest.(check bool) "next does not skip" false
    (holds (then_ (matches (send ())) (next (reply ()))) synthetic);
  Alcotest.(check bool) "next accepts the adjacent event" true
    (holds (then_ (matches (send ())) (next (deliver ()))) synthetic);
  (* [within] bounds the matched span, not the whole trace. *)
  let span = seq [ matches (send ()); matches (reply ()) ] in
  Alcotest.(check bool) "within passes" true (holds (within 2.0 span) synthetic);
  Alcotest.(check bool) "within fails when exceeded" false
    (holds (within 1.5 span) synthetic);
  (* Failure messages carry the step label. *)
  (match explain (matches ~label:"a Drop event" (drop ())) synthetic with
  | Some msg ->
      Alcotest.(check bool) "label in message" true
        (String.length msg > 0
        && Option.is_some
             (String.index_opt msg 'D' |> Option.map (fun _ -> ()))
        &&
        let sub = "a Drop event" in
        let rec contains i =
          i + String.length sub <= String.length msg
          && (String.sub msg i (String.length sub) = sub || contains (i + 1))
        in
        contains 0)
  | None -> Alcotest.fail "expected a failure");
  (* Queries. *)
  Alcotest.(check int) "count_of" 1 (count_of (send ()) synthetic);
  Alcotest.(check int) "count_of negation" 3 (count_of (not_ (send ())) synthetic);
  Alcotest.(check bool) "find" true
    (match find (reply ~ok:true ()) synthetic with
    | Some e -> e.Event.time = 3.0
    | None -> false);
  Alcotest.(check bool) "predicate conjunction" true
    (holds (matches (send () &&& fun e -> e.Event.time > 0.5)) synthetic);
  Alcotest.(check bool) "run returns matched events" true
    (match run (seq [ matches (send ()); matches (deliver ()) ]) synthetic with
    | Ok [ a; b ] -> a.Event.time = 1.0 && b.Event.time = 2.0
    | _ -> false)

(* --- recorder mechanics --- *)

let test_recorder_ring () =
  let clock = ref 0.0 in
  let r = Recorder.create ~capacity:4 ~clock:(fun () -> !clock) () in
  for i = 1 to 10 do
    clock := float_of_int i;
    Recorder.emit r (Event.Timeout { id = i })
  done;
  Alcotest.(check int) "total counts everything" 10 (Recorder.total r);
  Alcotest.(check int) "ring retains capacity" 4 (Recorder.retained r);
  Alcotest.(check int) "overwritten" 6 (Recorder.overwritten r);
  let ids =
    List.map
      (fun e -> match e.Event.kind with Event.Timeout { id } -> id | _ -> -1)
      (Recorder.events r)
  in
  Alcotest.(check (list int)) "newest four, oldest first" [ 7; 8; 9; 10 ] ids;
  Alcotest.(check int) "events_since a live mark" 2
    (List.length (Recorder.events_since r 8));
  Alcotest.(check int) "events_since a forgotten mark" 4
    (List.length (Recorder.events_since r 2));
  Recorder.set_enabled r false;
  Recorder.emit r (Event.Timeout { id = 11 });
  Alcotest.(check int) "disabled drops emissions" 10 (Recorder.total r);
  Recorder.set_enabled r true;
  Recorder.clear r;
  Alcotest.(check int) "clear empties the ring" 0
    (List.length (Recorder.events r));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Recorder.create: capacity must be positive") (fun () ->
      ignore (Recorder.create ~capacity:0 ~clock:(fun () -> 0.0) ()))

let test_recorder_latency () =
  let r = Recorder.create ~clock:(fun () -> 0.0) () in
  Alcotest.(check bool) "no histogram before observe" true
    (Recorder.latency r ~component:"rt.invoke" = None);
  Recorder.observe r ~component:"rt.invoke" 0.002;
  Recorder.observe r ~component:"rt.invoke" 0.2;
  Recorder.observe r ~component:"net.delay" 1e-4;
  (match Recorder.latency r ~component:"rt.invoke" with
  | Some h -> Alcotest.(check int) "two samples" 2 (Legion_util.Stats.Histogram.total h)
  | None -> Alcotest.fail "histogram missing");
  Alcotest.(check (list string)) "sorted components"
    [ "net.delay"; "rt.invoke" ]
    (List.map fst (Recorder.latencies r))

(* --- the flat ring against the boxed one --- *)

module Ref = Recorder_ref

type step = Emit of Event.t | Clear | Enable of bool | Since of int

let show_step = function
  | Emit e -> Event.to_json e
  | Clear -> "clear"
  | Enable b -> Printf.sprintf "enable %b" b
  | Since back -> Printf.sprintf "since total-%d" back

(* [Since back] reads from [back] events before the current total, so a
   large [back] asks for events the ring has already forgotten. *)
let step_gen =
  let open QCheck.Gen in
  frequency
    [
      (20, map (fun e -> Emit e) Gens.event);
      (1, return Clear);
      (1, map (fun b -> Enable b) bool);
      (3, map (fun k -> Since k) (0 -- 400));
    ]

let same_events label got want =
  if List.length got <> List.length want then
    QCheck.Test.fail_reportf "%s: %d events, reference %d" label
      (List.length got) (List.length want);
  List.iter2
    (fun g w ->
      if g <> w || Hashtbl.hash g <> Hashtbl.hash w then
        QCheck.Test.fail_reportf "%s: got %s, reference %s" label
          (Event.to_json g) (Event.to_json w))
    got want

let recorder_matches_ref =
  QCheck.Test.make ~name:"flat ring reads back what the boxed ring keeps"
    ~count:300
    QCheck.(
      pair (int_range 1 300)
        (make ~print:(fun l -> String.concat "; " (List.map show_step l))
           Gen.(list_size (0 -- 250) step_gen)))
    (fun (capacity, steps) ->
      let now = ref 0.0 in
      let clock () = !now in
      let r = Recorder.create ~capacity ~clock ()
      and o = Ref.create ~capacity ~clock () in
      let check () =
        same_events "events" (Recorder.events r) (Ref.events o);
        if
          Recorder.total r <> Ref.total o
          || Recorder.retained r <> Ref.retained o
          || Recorder.overwritten r <> Ref.overwritten o
        then
          QCheck.Test.fail_reportf "totals (%d, %d, %d), reference (%d, %d, %d)"
            (Recorder.total r) (Recorder.retained r) (Recorder.overwritten r)
            (Ref.total o) (Ref.retained o) (Ref.overwritten o);
        if Ref.overwritten o = 0 then begin
          let evs = Ref.events o in
          for k = 0 to Event.kinds - 1 do
            let n = Event.name_of_index k in
            let want = Trace.count_of (Trace.named n) evs in
            if Recorder.count r n <> want then
              QCheck.Test.fail_reportf "count %s = %d, reference %d" n
                (Recorder.count r n) want
          done
        end
      in
      List.iter
        (fun step ->
          (match step with
          | Emit e ->
              now := e.Event.time;
              Recorder.emit r ?host:e.Event.host ?site:e.Event.site e.Event.kind;
              Ref.emit o ?host:e.Event.host ?site:e.Event.site e.Event.kind
          | Clear ->
              Recorder.clear r;
              Ref.clear o
          | Enable b ->
              Recorder.set_enabled r b;
              Ref.set_enabled o b
          | Since back ->
              let mark = Ref.total o - back in
              let want = Ref.events_since o mark in
              same_events "events_since" (Recorder.events_since r mark) want;
              let snoc acc e = e :: acc in
              same_events "fold_since"
                (Recorder.fold_since r mark snoc [])
                (List.fold_left snoc [] want));
          check ())
        steps;
      true)

(* [Event.index] numbers the constructors in declaration order — the
   order [Gens.event_kinds] lists them — and names are distinct. *)
let test_event_index () =
  let rand = Random.State.make [| 21 |] in
  List.iteri
    (fun i g ->
      let k = QCheck.Gen.generate1 ~rand g in
      Alcotest.(check int) (Event.name k ^ " index") i (Event.index k);
      Alcotest.(check string) "name_of_index" (Event.name k) (Event.name_of_index i))
    Gens.event_kinds;
  Alcotest.(check int) "every constructor generated" Event.kinds
    (List.length Gens.event_kinds);
  let names = List.init Event.kinds Event.name_of_index in
  Alcotest.(check int) "distinct names" Event.kinds
    (List.length (List.sort_uniq String.compare names))

let test_recorder_count () =
  let r = Recorder.create ~capacity:2 ~clock:(fun () -> 0.0) () in
  for id = 1 to 5 do
    Recorder.emit r (Event.Timeout { id })
  done;
  Recorder.emit r (Event.Reply { id = 6; ok = true });
  Alcotest.(check int) "overwritten events still counted" 5
    (Recorder.count r "Timeout");
  Alcotest.(check int) "other kinds apart" 1 (Recorder.count r "Reply");
  Alcotest.(check int) "never emitted" 0 (Recorder.count r "Send");
  Recorder.set_enabled r false;
  Recorder.emit r (Event.Timeout { id = 7 });
  Alcotest.(check int) "disabled counts nothing" 5 (Recorder.count r "Timeout");
  Recorder.set_enabled r true;
  Recorder.clear r;
  Alcotest.(check int) "clear resets counts" 0 (Recorder.count r "Timeout");
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Recorder.count: unknown event Timeouts") (fun () ->
      ignore (Recorder.count r "Timeouts"))

(* Recording keeps an event for the next [capacity] emissions, so a ring
   that stores the emitted values promotes every one of them. A minor
   collection every 512 emissions, well inside the ring's 1,024 slots,
   stands for the rest of a simulation's allocation. As at the real
   emission points, the clock allocates its value and each kind is built
   at the call from long-lived LOIDs and strings. Promoted words are then
   a function of the code, not of the machine. *)
let promoted_per_emit ~emit =
  let a = l1 and b = l2 and meth = "Get" and tenant = Some "alice" in
  let emit_nth i =
    let kind =
      match i mod 7 with
      | 0 -> Event.Send { src = i; dst = 2; bytes = 100; tier = Event.Inter_site }
      | 1 -> Event.Deliver { src = i; dst = 2 }
      | 2 -> Event.Reply { id = i; ok = true }
      | 3 -> Event.Call { id = i; src = a; dst = b; meth }
      | 4 -> Event.Cache_hit { owner = a; target = b }
      | 5 -> Event.Cache_miss { owner = a; target = b }
      | _ -> Event.Admit { loid = b; meth; queued = false; tenant }
    in
    emit ?host:(Some 3) ?site:(Some 1) kind
  in
  for i = 0 to 4095 do
    emit_nth i
  done;
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let n = 100_000 in
  for i = 0 to n - 1 do
    emit_nth i;
    if i land 511 = 511 then Gc.minor ()
  done;
  Gc.minor ();
  ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int n

let test_recording_promotes_nothing () =
  let tick = ref 0 in
  let clock () =
    incr tick;
    float_of_int !tick
  in
  let r = Recorder.create ~capacity:1024 ~clock () in
  let o = Ref.create ~capacity:1024 ~clock () in
  let flat = promoted_per_emit ~emit:(Recorder.emit r) in
  let boxed = promoted_per_emit ~emit:(Ref.emit o) in
  Alcotest.(check bool)
    (Printf.sprintf "flat ring promotes %.2f words per emit (<= 0.01)" flat)
    true (flat <= 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "boxed ring promotes %.2f words per emit (>= 8)" boxed)
    true (boxed >= 8.0)

let test_system_observes_latency () =
  let sys, ctx, obj = setup () in
  ignore (ok_or_fail "Get" (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]));
  let obs = System.obs sys in
  List.iter
    (fun component ->
      match Recorder.latency obs ~component with
      | Some h ->
          Alcotest.(check bool)
            (component ^ " has samples")
            true
            (Legion_util.Stats.Histogram.total h > 0)
      | None -> Alcotest.failf "no %s histogram" component)
    [ "rt.resolve" ]

let test_event_json () =
  let e =
    {
      Event.time = 0.25;
      host = Some 3;
      site = Some 1;
      kind = Event.Send { src = 3; dst = 4; bytes = 17; tier = Event.Inter_site };
    }
  in
  Alcotest.(check string) "json shape"
    "{\"t\":0.25,\"host\":3,\"site\":1,\"ev\":\"Send\",\"src\":3,\"dst\":4,\"bytes\":17,\"tier\":\"wan\"}"
    (Event.to_json e);
  let quoted =
    Event.to_json
      (ev 1.0 (Event.Call { id = 1; src = l1; dst = l2; meth = "a\"b\n" }))
  in
  Alcotest.(check bool) "strings escaped" true
    (let sub = "a\\\"b\\n" in
     let rec contains i =
       i + String.length sub <= String.length quoted
       && (String.sub quoted i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

let () =
  Alcotest.run "trace"
    [
      ( "protocol",
        [
          Alcotest.test_case "cold path (Fig. 17)" `Quick test_cold_path;
          Alcotest.test_case "warm path (2 messages)" `Quick test_warm_path;
          Alcotest.test_case "stale binding rebind (§4.1.4)" `Quick
            test_stale_binding_rebind;
        ] );
      ( "combinators",
        [ Alcotest.test_case "sequence semantics" `Quick test_combinators ] );
      ( "recorder",
        [
          Alcotest.test_case "ring buffer" `Quick test_recorder_ring;
          Alcotest.test_case "latency histograms" `Quick test_recorder_latency;
          QCheck_alcotest.to_alcotest recorder_matches_ref;
          Alcotest.test_case "event index" `Quick test_event_index;
          Alcotest.test_case "per-kind counts" `Quick test_recorder_count;
          Alcotest.test_case "recording promotes nothing" `Quick
            test_recording_promotes_nothing;
          Alcotest.test_case "system latency components" `Quick
            test_system_observes_latency;
          Alcotest.test_case "event json" `Quick test_event_json;
        ] );
    ]
