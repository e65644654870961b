(* Tests for the discrete-event engine. *)

module Engine = Legion_sim.Engine
module Prng = Legion_util.Prng
module Planet = Legion.Planet

let test_time_ordering () =
  let sim = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run sim;
  Alcotest.(check (list int)) "fires in time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now sim)

let test_same_time_fifo () =
  let sim = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule sim ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run sim;
  Alcotest.(check (list int)) "FIFO at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let sim = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule sim ~delay:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule sim ~delay:0.5 (fun () -> log := "c" :: !log))));
  ignore (Engine.schedule sim ~delay:1.2 (fun () -> log := "b" :: !log));
  Engine.run sim;
  Alcotest.(check (list string)) "nested event interleaves" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_negative_delay_clamped () =
  let sim = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule sim ~delay:(-5.0) (fun () -> fired := true));
  Engine.run sim;
  Alcotest.(check bool) "fires now" true !fired;
  Alcotest.(check (float 1e-9)) "clock unmoved" 0.0 (Engine.now sim)

let test_cancel () =
  let sim = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Alcotest.(check int) "pending" 1 (Engine.pending sim);
  Engine.cancel h;
  Alcotest.(check bool) "marked cancelled" true (Engine.is_cancelled h);
  Alcotest.(check int) "not pending" 0 (Engine.pending sim);
  Engine.run sim;
  Alcotest.(check bool) "never fires" false !fired;
  (* Cancelling twice is fine. *)
  Engine.cancel h

let test_cancel_from_event () =
  let sim = Engine.create () in
  let fired = ref false in
  let h = ref None in
  ignore
    (Engine.schedule sim ~delay:1.0 (fun () ->
         match !h with Some h -> Engine.cancel h | None -> ()));
  h := Some (Engine.schedule sim ~delay:2.0 (fun () -> fired := true));
  Engine.run sim;
  Alcotest.(check bool) "cancelled later event skipped" false !fired

let test_run_until () =
  let sim = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log));
  ignore (Engine.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log));
  Engine.run ~until:2.0 sim;
  (* Events at exactly [until] fire; later ones wait. *)
  Alcotest.(check (list int)) "fired through until" [ 1; 2 ] (List.rev !log);
  Alcotest.(check int) "one pending" 1 (Engine.pending sim);
  Engine.run sim;
  Alcotest.(check (list int)) "resumes" [ 1; 2; 3 ] (List.rev !log)

let test_max_events () =
  let sim = Engine.create () in
  let n = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule sim ~delay:1.0 (fun () -> incr n))
  done;
  Engine.run ~max_events:4 sim;
  Alcotest.(check int) "bounded" 4 !n;
  Alcotest.(check int) "fired counter" 4 (Engine.events_fired sim);
  Engine.run sim;
  Alcotest.(check int) "rest fire" 10 !n

let test_step () =
  let sim = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step sim);
  ignore (Engine.schedule sim ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "step fires" true (Engine.step sim);
  Alcotest.(check bool) "then empty" false (Engine.step sim)

let test_schedule_at_past_clamped () =
  let sim = Engine.create () in
  ignore (Engine.schedule sim ~delay:5.0 (fun () -> ()));
  Engine.run sim;
  let fired_at = ref 0.0 in
  ignore (Engine.schedule_at sim ~time:1.0 (fun () -> fired_at := Engine.now sim));
  Engine.run sim;
  Alcotest.(check (float 1e-9)) "clamped to now" 5.0 !fired_at

let monotonic_clock =
  QCheck.Test.make ~name:"clock is monotonic over random schedules" ~count:100
    QCheck.(small_list (float_range 0.0 10.0))
    (fun delays ->
      let sim = Engine.create () in
      let ok = ref true in
      let last = ref 0.0 in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule sim ~delay:d (fun () ->
                 if Engine.now sim < !last then ok := false;
                 last := Engine.now sim)))
        delays;
      Engine.run sim;
      !ok)

(* [Engine.pending] is a live-event counter, not a scan; pin it against
   an exhaustive model (a table of scheduled-but-not-yet-fired,
   not-cancelled events) across random schedule / cancel / partial-run
   interleavings. *)
let pending_counter_pins =
  QCheck.Test.make ~name:"pending equals exhaustive live count" ~count:100
    QCheck.(list (pair (int_bound 2) (pair (int_bound 7) small_int)))
    (fun ops ->
      let sim = Engine.create () in
      let model = Hashtbl.create 16 in
      let handles = ref [] and n = ref 0 and next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun (kind, (ti, k)) ->
          (match kind with
          | 0 ->
              let id = !next_id in
              incr next_id;
              let h =
                Engine.schedule sim
                  ~delay:(float_of_int ti /. 2.0)
                  (fun () -> Hashtbl.remove model id)
              in
              Hashtbl.replace model id ();
              handles := (id, h) :: !handles;
              incr n
          | 1 -> ignore (Engine.run sim ~max_events:(1 + (k mod 3)))
          | _ ->
              if !n > 0 then begin
                (* Cancelling an already-fired or already-cancelled
                   handle must be a no-op on both sides. *)
                let id, h = List.nth !handles (k mod !n) in
                Engine.cancel h;
                Hashtbl.remove model id
              end);
          if Engine.pending sim <> Hashtbl.length model then ok := false)
        ops;
      Engine.run sim;
      !ok && Engine.pending sim = 0 && Hashtbl.length model = 0)

(* A million events through the heap with interleaved far-future
   cancellations: the fired count is exact, the clock never
   goes backwards, and cancelled events never run. *)
let test_stress_million () =
  let sim = Engine.create () in
  let prng = Prng.create ~seed:99L in
  let fired = ref 0 and last = ref 0.0 in
  let rec tick budget () =
    incr fired;
    let now = Engine.now sim in
    if now < !last then Alcotest.failf "clock went backwards at %f" now;
    last := now;
    if budget > 0 then begin
      if budget land 63 = 0 then begin
        let h =
          Engine.schedule sim ~delay:1e6 (fun () ->
              Alcotest.fail "cancelled event fired")
        in
        Engine.cancel h
      end;
      ignore (Engine.schedule sim ~delay:(Prng.float prng 1.0) (tick (budget - 1)))
    end
  in
  let chains = 100 and per_chain = 10_000 in
  for _ = 1 to chains do
    ignore (Engine.schedule sim ~delay:(Prng.float prng 1.0) (tick (per_chain - 1)))
  done;
  Engine.run sim;
  Alcotest.(check int) "fired" (chains * per_chain) !fired;
  Alcotest.(check int) "events_fired" (chains * per_chain)
    (Engine.events_fired sim);
  Alcotest.(check int) "drained" 0 (Engine.pending sim)

(* The engine against a model: test/heap.ml holding every event ever
   scheduled, cancelled ones included, which it skips when it pops them
   (lazy cancellation, the simplest correct queue). Random programs
   schedule at times drawn from a few values, so same-instant ties are
   common; some events schedule a child when they fire; cancels pick
   any handle, fired and already-cancelled ones too; and the engine is
   driven by [step], [run ~max_events] and [run ~until]. After every
   operation both sides must have fired the same ids at the same
   clocks, [pending] must equal the model's live count, and
   [is_cancelled] must hold exactly for the handles no longer queued. *)

type op =
  | Sched of int * int option  (* delay index; the child's, if any *)
  | Post of int
  | Cancel of int  (* picks among the handles issued so far *)
  | Step
  | Run_max of int
  | Run_until of int  (* until now + delays.(i) *)

let delays = [| 0.0; 0.25; 0.5; 0.5; 1.0; 2.0 |]

let show_op = function
  | Sched (d, c) ->
      Printf.sprintf "Sched(%d,%s)" d
        (match c with Some c -> string_of_int c | None -> "-")
  | Post d -> Printf.sprintf "Post %d" d
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Step -> "Step"
  | Run_max n -> Printf.sprintf "Run_max %d" n
  | Run_until d -> Printf.sprintf "Run_until %d" d

let gen_op =
  let open QCheck.Gen in
  let d = int_bound (Array.length delays - 1) in
  frequency
    [
      (4, map2 (fun d c -> Sched (d, c)) d
            (frequency [ (7, return None); (3, map Option.some d) ]));
      (1, map (fun d -> Post d) d);
      (3, map (fun k -> Cancel k) small_nat);
      (2, return Step);
      (1, map (fun n -> Run_max n) (int_bound 4));
      (1, map (fun d -> Run_until d) d);
    ]

type state = Queued | Fired | Cancelled

type mrec = {
  m_time : float;
  m_seq : int;
  m_id : int;
  m_child : int option;
  mutable m_state : state;
}

(* The model world. *)
type model = {
  q : mrec Heap.t;
  mutable m_clock : float;
  mutable m_next : int;  (* ids and seqs: one per schedule *)
  mutable recs : mrec list;  (* newest first *)
  mutable m_log : (int * float) list;
}

let m_schedule m ~delay child =
  let r =
    { m_time = m.m_clock +. delay; m_seq = m.m_next; m_id = m.m_next;
      m_child = child; m_state = Queued }
  in
  m.m_next <- m.m_next + 1;
  Heap.push m.q r;
  m.recs <- r :: m.recs

(* The earliest queued record, popping cancelled ones on the way. *)
let rec m_peek m =
  match Heap.peek m.q with
  | Some r when r.m_state = Cancelled ->
      ignore (Heap.pop m.q);
      m_peek m
  | top -> top

let m_fire m r =
  ignore (Heap.pop m.q);
  r.m_state <- Fired;
  m.m_clock <- r.m_time;
  m.m_log <- (r.m_id, r.m_time) :: m.m_log;
  Option.iter (fun c -> m_schedule m ~delay:delays.(c) None) r.m_child

let m_live m =
  List.length (List.filter (fun r -> r.m_state = Queued) (Heap.to_list m.q))

let engine_matches_model =
  QCheck.Test.make ~name:"engine fires as the lazy-cancel heap model" ~count:500
    (QCheck.list_of_size QCheck.Gen.(0 -- 120) (QCheck.make ~print:show_op gen_op))
    (fun ops ->
      let sim = Engine.create () in
      let e_log = ref [] and e_next = ref 0 in
      (* Handles by id; [None] for posted events. *)
      let handles = Hashtbl.create 64 in
      let rec e_schedule ~delay child ~post =
        let id = !e_next in
        incr e_next;
        let fire () =
          e_log := (id, Engine.now sim) :: !e_log;
          Option.iter
            (fun c -> e_schedule ~delay:delays.(c) None ~post:false)
            child
        in
        if post then begin
          Engine.post sim ~delay fire;
          Hashtbl.replace handles id None
        end
        else Hashtbl.replace handles id (Some (Engine.schedule sim ~delay fire))
      in
      let cmp a b = compare (a.m_time, a.m_seq) (b.m_time, b.m_seq) in
      let m =
        { q = Heap.create ~cmp; m_clock = 0.0; m_next = 0; recs = []; m_log = [] }
      in
      let agrees () =
        !e_log = m.m_log
        && Engine.now sim = m.m_clock
        && Engine.pending sim = m_live m
        && List.for_all
             (fun r ->
               match Hashtbl.find handles r.m_id with
               | Some h -> Engine.is_cancelled h = (r.m_state <> Queued)
               | None -> true)
             m.recs
      in
      List.for_all
        (fun op ->
          (match op with
          | Sched (d, child) ->
              e_schedule ~delay:delays.(d) child ~post:false;
              m_schedule m ~delay:delays.(d) child
          | Post d ->
              e_schedule ~delay:delays.(d) None ~post:true;
              m_schedule m ~delay:delays.(d) None
          | Cancel k when m.recs <> [] ->
              let r = List.nth m.recs (k mod List.length m.recs) in
              Option.iter
                (fun h ->
                  Engine.cancel h;
                  if r.m_state = Queued then r.m_state <- Cancelled)
                (Hashtbl.find handles r.m_id)
          | Cancel _ -> ()
          | Step ->
              ignore (Engine.step sim);
              Option.iter (m_fire m) (m_peek m)
          | Run_max n ->
              Engine.run sim ~max_events:n;
              let rec go n =
                if n > 0 then
                  match m_peek m with
                  | Some r ->
                      m_fire m r;
                      go (n - 1)
                  | None -> ()
              in
              go n
          | Run_until d ->
              let limit = m.m_clock +. delays.(d) in
              Engine.run sim ~until:(Engine.now sim +. delays.(d));
              let rec go () =
                match m_peek m with
                | Some r when r.m_time <= limit ->
                    m_fire m r;
                    go ()
                | _ -> ()
              in
              go ());
          agrees ())
        (ops @ [ Run_max max_int ]))

let test_non_finite_time () =
  let sim = Engine.create () in
  ignore (Engine.schedule sim ~delay:1.0 ignore);
  let rejects what f =
    Alcotest.check_raises what
      (Invalid_argument "Engine: event time is not finite") f
  in
  rejects "schedule nan" (fun () ->
      ignore (Engine.schedule sim ~delay:Float.nan ignore));
  rejects "schedule inf" (fun () ->
      ignore (Engine.schedule sim ~delay:Float.infinity ignore));
  rejects "schedule_at nan" (fun () ->
      ignore (Engine.schedule_at sim ~time:Float.nan ignore));
  rejects "schedule_at inf" (fun () ->
      ignore (Engine.schedule_at sim ~time:Float.infinity ignore));
  rejects "post inf" (fun () -> Engine.post sim ~delay:Float.infinity ignore);
  rejects "post nan" (fun () -> Engine.post sim ~delay:Float.nan ignore);
  Alcotest.(check int) "nothing queued by a rejected call" 1 (Engine.pending sim);
  Engine.run sim;
  Alcotest.(check int) "the valid event fired" 1 (Engine.events_fired sim)

(* Timers that are armed and cancelled before they fire, the runtime's
   RPC-attempt pattern, must not cost the major heap: [chains]
   self-rescheduling events, 10 ms apart on average, each arm a 5 s
   timer and cancel their previous one. A queue that kept cancelled
   timers until their time came would hold 50,000 of them here, and
   promote each one's record and time. Words promoted per fired event,
   after a warm-up. *)
let promoted_per_event () =
  let sim = Engine.create () in
  let prng = Prng.create ~seed:5L in
  let chains = 100 in
  let timers = Array.make chains None in
  let never () = Alcotest.fail "a cancelled timer fired" in
  let rec tick c () =
    Option.iter Engine.cancel timers.(c);
    timers.(c) <- Some (Engine.schedule sim ~delay:5.0 never);
    Engine.post sim ~delay:(Prng.float prng 0.02) (tick c)
  in
  for c = 0 to chains - 1 do
    Engine.post sim ~delay:(Prng.float prng 0.02) (tick c)
  done;
  Engine.run sim ~max_events:100_000;
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words and f0 = Engine.events_fired sim in
  Engine.run sim ~max_events:500_000;
  Gc.minor ();
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (p1 -. p0) /. float_of_int (Engine.events_fired sim - f0)

let test_promotion_under_cancelled_timers () =
  let w = promoted_per_event () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words promoted per fired event (<= 1)" w)
    true (w <= 1.0)

(* The E18 determinism contract: the report is a pure function of the
   config, so the same seed must produce byte-identical JSON. Swept
   across seeds by the LEGION_TRACE_SEED rules in test/dune. *)
let test_planet_determinism () =
  let seed =
    match Sys.getenv_opt "LEGION_TRACE_SEED" with
    | Some s -> Int64.of_string s
    | None -> 18L
  in
  let cfg =
    {
      Planet.smoke with
      Planet.seed;
      objects = 300;
      calls = 600;
      clone_creates = 64;
      queue_events = 40_000;
    }
  in
  let j1 = Planet.to_json (Planet.run cfg) in
  let j2 = Planet.to_json (Planet.run cfg) in
  Alcotest.(check string) "same seed, same bytes" j1 j2;
  Alcotest.(check bool) "report is non-trivial" true (String.length j1 > 200)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "negative delay clamps" `Quick test_negative_delay_clamped;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel from event" `Quick test_cancel_from_event;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "max events" `Quick test_max_events;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "past schedule clamps" `Quick test_schedule_at_past_clamped;
          QCheck_alcotest.to_alcotest monotonic_clock;
          QCheck_alcotest.to_alcotest pending_counter_pins;
          QCheck_alcotest.to_alcotest engine_matches_model;
          Alcotest.test_case "non-finite time rejected" `Quick
            test_non_finite_time;
          Alcotest.test_case "promotion under cancelled timers" `Quick
            test_promotion_under_cancelled_timers;
          Alcotest.test_case "million-event stress" `Slow test_stress_million;
        ] );
      ( "planet",
        [
          Alcotest.test_case "same-seed determinism" `Slow
            test_planet_determinism;
        ] );
    ]
