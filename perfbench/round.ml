(* One round of a workload: set up a fresh system from the seed, run the
   measured phase, check the outputs. A run repeats rounds until its
   time is used; every round of one seed simulates exactly the same
   thing, so virtual-time figures come from the first round and host
   timings are medians over all of them. *)

open Fixture

type t = {
  setup_s : float;  (** Host seconds: boot, derivation, population, warm-up. *)
  boot_s : float;
  create_us : float array;  (** Host microseconds per [Api.create_object]. *)
  measure_s : float;  (** Host seconds of the measured phase. *)
  ref_s : float;  (** Machine-speed reference around the measured phase. *)
  attempted : int;
  failed : int;
  lat_ms : float array;  (** Virtual ms from due to reply, per completed op. *)
  late_ms : float;  (** Worst open-loop generator lateness, virtual ms. *)
  delta : counts;  (** Counter deltas over the measured phase. *)
  cache : int * int * int;  (** Client comm caches: lookups, hits, evictions. *)
  cold_us : float array;  (** Host microseconds per first-touch call. *)
  resolve_ms_p50 : float;
  table : (string * int) list;  (** Exact message counts (see Pinned). *)
  extra : (string * float) list;  (** Workload-specific layer figures. *)
  violations : string list;
  digest : string;
  (* Traced rounds only. *)
  retries : int;
  rebinds : int;
  wait_ms : float array;
  payloads : Value.t array;
  delays : float array;
  loid_seq : Loid.t array;
  cache_capacity : int;
}

let blank =
  {
    setup_s = 0.0;
    boot_s = 0.0;
    create_us = [||];
    measure_s = 0.0;
    ref_s = 0.0;
    attempted = 0;
    failed = 0;
    lat_ms = [||];
    late_ms = 0.0;
    delta = zero_counts;
    cache = (0, 0, 0);
    cold_us = [||];
    resolve_ms_p50 = 0.0;
    table = [];
    extra = [];
    violations = [];
    digest = "";
    retries = 0;
    rebinds = 0;
    wait_ms = [||];
    payloads = [||];
    delays = [||];
    loid_seq = [||];
    cache_capacity = 0;
  }

(* --- Traced-run capture: a reservoir sample of the payloads the
   workload itself sends, with the mean latency of each one's link. --- *)

let reservoir = 512

type capture = {
  c_prng : Prng.t;
  c_payloads : Value.t array;
  c_delays : float array;
  mutable seen : int;
}

let start_capture sys ~seed =
  let c =
    {
      c_prng = Prng.create ~seed;
      c_payloads = Array.make reservoir Value.Unit;
      c_delays = Array.make reservoir 0.0;
      seen = 0;
    }
  in
  let net = System.net sys in
  Network.set_tap net
    (Some
       (fun ~src ~dst v ->
         let i = c.seen in
         c.seen <- i + 1;
         let slot = if i < reservoir then i else Prng.int c.c_prng (i + 1) in
         if slot < reservoir then begin
           c.c_payloads.(slot) <- v;
           c.c_delays.(slot) <- Network.latency_between net src dst
         end));
  c

let stop_capture sys c =
  Network.set_tap (System.net sys) None;
  let n = Stdlib.min c.seen reservoir in
  (Array.sub c.c_payloads 0 n, Array.sub c.c_delays 0 n)

(* --- Driving the engine. Untraced: one run to quiescence. Traced: the
   same events in virtual-time slices, each a span, with the slice's
   trace events counted as they pass (the ring only keeps the newest).
   Slicing fires exactly the same events in the same order. --- *)

type tally = { mutable n_retry : int; mutable n_rebind : int }

let tally () = { n_retry = 0; n_rebind = 0 }

(* Count the retry and rebind events emitted since [mark]. *)
let count_since sys tally mark =
  List.iter
    (fun (e : Legion_obs.Event.t) ->
      match e.kind with
      | Legion_obs.Event.Retry _ -> tally.n_retry <- tally.n_retry + 1
      | Legion_obs.Event.Rebind _ -> tally.n_rebind <- tally.n_rebind + 1
      | _ -> ())
    (Recorder.events_since (System.obs sys) mark)

let drain sys ~traced ~tally ?(until = infinity) () =
  let sim = System.sim sys in
  if not traced then Engine.run ~until sim
  else begin
    let horizon = ref (Engine.now sim) in
    while Engine.pending sim > 0 && !horizon < until do
      horizon := Float.min until (!horizon +. 0.02);
      let mark = Recorder.total (System.obs sys) in
      Probe.span "sim.run" (fun () -> Engine.run ~until:!horizon sim);
      count_since sys tally mark
    done
  end

(* A growable float buffer for per-op samples. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let contents s = Array.sub s.a 0 s.n

(* Virtual ms from each traced operation's due time to its handler's
   start, given the due times by operation id. *)
let waits dues =
  let w = samples () in
  Hashtbl.iter
    (fun op due ->
      match Hashtbl.find_opt handler_starts op with
      | Some t -> push w ((t -. due) *. 1000.0)
      | None -> ())
    dues;
  contents w

let resolve_ms_p50 sys =
  match Recorder.latency (System.obs sys) ~component:"rt.resolve" with
  | Some h when Legion_util.Stats.Histogram.total h > 0 ->
      1000.0 *. Legion_util.Stats.Histogram.percentile h 50.0
  | _ -> 0.0

(* After the measured phase: [Get] every object through [ctx] and check
   the values sum to the acknowledged increments. *)
let check_sum sys ctx loids ~acked =
  let bad = ref [] in
  let sum =
    Array.fold_left
      (fun acc l ->
        match Api.call sys ctx ~dst:l ~meth:"Get" ~args:[] with
        | Ok (Value.Int v) -> acc + v
        | Ok v -> bad := ("Get returned " ^ Value.to_string v) :: !bad; acc
        | Error e -> bad := ("Get failed: " ^ Err.to_string e) :: !bad; acc)
      0 loids
  in
  let bad = List.filteri (fun i _ -> i < 3) (List.rev !bad) in
  if sum <> acked then
    Printf.sprintf "sum of Get is %d but %d increments were acknowledged" sum acked
    :: bad
  else bad

(* Messages sent by one call, measured after the system has settled. *)
let msgs_of_call sys ctx ~dst ~meth ~args =
  Engine.run (System.sim sys);
  let m0 = Network.messages_sent (System.net sys) in
  ignore (Api.call sys ctx ~dst ~meth ~args);
  Engine.run (System.sim sys);
  Network.messages_sent (System.net sys) - m0
