(* durable_churn — the write path under a hostile network.

   Open-loop arrivals mix Create, Increment, Delete and E20-style 2PC
   transfers through the Legion_txn coordinator. Periodic checkpoint
   sweeps run (System.enable_recovery), and the network duplicates,
   reorders, corrupts and loses datagrams at fixed rates with the
   runtime's exactly-once dedup cache on. Increments go to the first
   half of the pre-created population and transfers to the second half,
   so a prepare lock never stalls a Zipf-hot object. Deletes only ever
   take objects this run created and nothing else touches, so no call
   races a deletion. *)

open Fixture
module Script = Legion_sim.Script
module Convert = Legion_core.Convert

let sites = [ ("a", 3); ("b", 3) ]
let population = 1000
let accounts = population / 2  (* transfers use objects [accounts, population) *)
let rate = 400.0  (* arrivals per virtual second *)
let window_s = 20.0  (* virtual *)
let settle_s = 5.0  (* virtual time after the window for retries to land *)

(* Operation mix, in percent. *)
let p_create = 15
let p_delete = 10
let p_transfer = 10

let faults net =
  Network.set_drop_rate net 0.002;
  Network.set_duplicate_rate net 0.02;
  Network.set_reorder net ~rate:0.05 ~window:0.005;
  Network.set_corrupt_rate net 0.01

let calm net =
  Network.set_drop_rate net 0.0;
  Network.set_duplicate_rate net 0.0;
  Network.set_reorder net ~rate:0.0 ~window:0.0;
  Network.set_corrupt_rate net 0.0

let create_args =
  [
    Value.Record [];
    Value.Record
      [
        ("magistrate", Convert.vopt Loid.to_value None);
        ("host", Convert.vopt Loid.to_value None);
        ("sched", Convert.vopt Loid.to_value None);
        ("candidates", Convert.vloids []);
        ("public_key", Convert.vopt Value.of_string None);
        ("eager", Value.Bool false);
      ];
  ]

let txn_step dst =
  Value.Record
    [
      ("dst", Loid.to_value dst);
      ("meth", Value.Str "Increment");
      ("args", Value.List [ Value.Int 1; Value.Int 0 ]);
      ("cmeth", Value.Str "Increment");
      ("cargs", Value.List [ Value.Int (-1); Value.Int 0 ]);
    ]

(* The E20 audit from the store histories alone: no transaction left a
   Staged entry or mixed Committed and Compensated marks. *)
let audit_history sys =
  let problems = ref [] in
  List.iter
    (fun (s : System.site) ->
      let store = s.storage in
      let marks = Hashtbl.create 64 in
      List.iter
        (fun loid ->
          List.iter
            (fun (e : Persistent.History.entry) ->
              match e.txn with
              | Some id ->
                  Hashtbl.replace marks id
                    (e.mark :: Option.value ~default:[] (Hashtbl.find_opt marks id))
              | None -> ())
            (Persistent.history store ~loid))
        (Persistent.history_loids store);
      Hashtbl.iter
        (fun id ms ->
          if List.mem Persistent.Staged ms then
            problems := Printf.sprintf "txn %s left a staged entry" id :: !problems;
          if List.mem Persistent.Committed ms && List.mem Persistent.Compensated ms then
            problems := Printf.sprintf "txn %s has mixed commit/compensate marks" id :: !problems)
        marks)
    (System.sites sys);
  List.sort compare !problems

let run ~seed ~traced =
  let t_round = Probe.now_ns () in
  service := 0.0;
  let t_boot = Probe.now_ns () in
  let sys = boot ~seed:(Int64.of_int seed) sites in
  let boot_s = Probe.seconds_since t_boot in
  let net = System.net sys and sim = System.sim sys in
  let setup = System.client sys () in
  let cls =
    derive sys setup ~units:[ unit_name; Legion_txn.Participant.unit_name ] "PerfAccount"
  in
  let coord_cls = derive sys setup ~units:[ Legion_txn.Coordinator.unit_name ] ~idl:None "PerfCoordinator" in
  let loids, create_us, _ = populate sys setup ~cls ~eager:true population in
  let coord = Api.create_object_exn sys setup ~cls:coord_cls ~eager:true () in
  (match
     Api.call sys setup ~dst:coord ~meth:"Configure"
       ~args:[ Value.Record [ ("store", Value.Str "a") ] ]
   with
  | Ok _ -> ()
  | Error e -> failwith ("Configure: " ^ Err.to_string e));
  let clients =
    Array.init (List.length sites) (fun site -> client sys ~site ~cache_capacity:None)
  in
  (* Warm the clients' caches with one Get per object from each site. *)
  Array.iter
    (fun ctx -> Array.iter (fun l -> ignore (Api.call sys ctx ~dst:l ~meth:"Get" ~args:[])) loids)
    clients;
  (* Arming takes a little virtual time; the loops outlast the window.
     Heartbeat probes are lost too, so a host is confirmed dead only
     after ten straight misses: a false verdict would reactivate its
     objects from their last checkpoint and lose acknowledged work. *)
  System.enable_recovery sys ~checkpoint_period:2.0 ~threshold:10
    ~until:(System.now sys +. window_s +. settle_s +. 1.0)
    ();
  let start = System.now sys in
  let setup_s = Probe.seconds_since t_round in
  (* Measured phase. *)
  let capture = if traced then Some (Round.start_capture sys ~seed:(Int64.of_int seed)) else None in
  faults net;
  let prng = Prng.create ~seed:(Int64.of_int ((seed * 6151) + 3)) in
  let mix = Prng.create ~seed:(Int64.of_int ((seed * 3571) + 5)) in
  let workload =
    {
      Script.objects = accounts;
      zipf_s = 0.9;
      site_mix = Array.make (List.length sites) 1.0;
      profile = Script.steady rate;
    }
  in
  let attempted_inc = Array.make population 0 and acked_inc = Array.make population 0 in
  let fresh = Queue.create () in  (* created, acknowledged, not yet deleted *)
  let created = ref [] and deleted = ref [] in
  let lat = Round.samples () in
  let dues = Hashtbl.create 1024 in
  let attempted = ref 0 and failed = ref 0 and aborted = ref 0 and commits = ref 0 in
  let first_error = ref None in
  let late = ref 0.0 in
  let loid_seq = ref [] in
  (* An aborted transfer is a refusal, so it counts as failed, but it is
     a legitimate outcome: the history audit checks its atomicity. *)
  let finish due = function
    | Ok _ -> Round.push lat ((System.now sys -. due) *. 1000.0)
    | Error (Err.Txn_aborted _) ->
        incr aborted;
        incr failed
    | Error e ->
        incr failed;
        if !first_error = None then first_error := Some (Err.to_string e)
  in
  let c0 = counts sys and k0 = cache_stats clients in
  let tally = Round.tally () in
  let ref0 = Probe.reference_s () in
  let t_measure = Probe.now_ns () in
  Script.drive sim ~prng workload ~start ~until:(start +. window_s)
    (fun ~seq ~obj ~site ->
      let due = System.now sys in
      late := Float.max !late (due -. (start +. (float_of_int (seq - 1) /. rate)));
      incr attempted;
      let ctx = clients.(site) in
      let invoke ?max_rebinds ~dst ~meth ~args k =
        Probe.span "rt.invoke" (fun () -> Runtime.invoke ctx ?max_rebinds ~dst ~meth ~args k)
      in
      let roll = Prng.int mix 100 in
      if roll < p_create then
        invoke ~dst:cls ~meth:"Create" ~args:create_args (fun r ->
            (match r with
            | Ok v -> (
                match Convert.loid_field v "loid" with
                | Ok l ->
                    created := l :: !created;
                    Queue.push l fresh
                | Error _ -> ())
            | Error _ -> ());
            finish due r)
      else if roll < p_create + p_delete && not (Queue.is_empty fresh) then begin
        let l = Queue.pop fresh in
        invoke ~dst:cls ~meth:"Delete" ~args:[ Loid.to_value l ] (fun r ->
            (match r with Ok _ -> deleted := l :: !deleted | Error _ -> ());
            finish due r)
      end
      else if roll < p_create + p_delete + p_transfer then begin
        let a = accounts + Prng.int mix accounts in
        let b = accounts + ((a - accounts + 1 + Prng.int mix (accounts - 1)) mod accounts) in
        attempted_inc.(a) <- attempted_inc.(a) + 1;
        attempted_inc.(b) <- attempted_inc.(b) + 1;
        invoke ~dst:coord ~meth:"TxnRun"
          ~args:[ Value.Str "2pc"; Value.List [ txn_step loids.(a); txn_step loids.(b) ] ]
          (fun r ->
            (match r with
            | Ok _ ->
                incr commits;
                acked_inc.(a) <- acked_inc.(a) + 1;
                acked_inc.(b) <- acked_inc.(b) + 1
            | Error _ -> ());
            finish due r)
      end
      else begin
        attempted_inc.(obj) <- attempted_inc.(obj) + 1;
        if traced then begin
          Hashtbl.replace dues seq due;
          if site = 0 then loid_seq := loids.(obj) :: !loid_seq
        end;
        (* No rebind: a rebind re-invokes under a fresh call id, which
           the dedup cache cannot recognise as a repeat. *)
        invoke ~max_rebinds:0 ~dst:loids.(obj) ~meth:"Increment"
          ~args:[ Value.Int 1; Value.Int seq ]
          (fun r ->
            (match r with Ok _ -> acked_inc.(obj) <- acked_inc.(obj) + 1 | Error _ -> ());
            finish due r)
      end);
  Round.drain sys ~traced ~tally ~until:(start +. window_s +. settle_s) ();
  let measure_s = Probe.seconds_since t_measure in
  let ref_s = Float.min ref0 (Probe.reference_s ()) in
  let c1 = counts sys and k1 = cache_stats clients in
  let payloads, delays =
    match capture with Some c -> Round.stop_capture sys c | None -> ([||], [||])
  in
  (* Heal, let the recovery loops end, and check. *)
  calm net;
  let problems = ref [] in
  let note p = if List.length !problems < 5 then problems := p :: !problems in
  let settle () =
    Engine.run ~until:(System.now sys +. 600.0) sim;
    if Engine.pending sim > 0 then note "the system did not quiesce within 600 virtual seconds"
  in
  settle ();
  let answered = lat.Round.n + !failed in
  let ctx = clients.(0) in
  (match !first_error with
  | Some e ->
      note (Printf.sprintf "%d operations failed (first: %s)" (!failed - !aborted) e)
  | None -> ());
  if answered <> !attempted then
    note (Printf.sprintf "%d of %d operations never answered" (!attempted - answered) !attempted);
  Array.iteri
    (fun i l ->
      match Api.call sys ctx ~dst:l ~meth:"Get" ~args:[] with
      | Ok (Value.Int v) ->
          if v < acked_inc.(i) || v > attempted_inc.(i) then
            note
              (Printf.sprintf "object %d: applied %d outside [acked %d, attempted %d]" i v
                 acked_inc.(i) attempted_inc.(i))
      | Ok v -> note ("Get returned " ^ Value.to_string v)
      | Error e -> note ("Get failed: " ^ Err.to_string e))
    loids;
  List.iter
    (fun l ->
      match Api.call sys ctx ~dst:l ~meth:"Get" ~args:[] with
      | Ok _ -> note ("deleted object still answers: " ^ Loid.to_string l)
      | Error e when Err.is_retryable e -> note ("deleted object: retryable " ^ Err.to_string e)
      | Error _ -> ())
    !deleted;
  List.iter
    (fun l ->
      if not (List.exists (Loid.equal l) !deleted) then
        match Api.call sys ctx ~dst:l ~meth:"Get" ~args:[] with
        | Ok (Value.Int 0) -> ()
        | Ok v -> note ("fresh object holds " ^ Value.to_string v)
        | Error e -> note ("fresh object: " ^ Err.to_string e))
    !created;
  List.iter note (audit_history sys);
  (match Api.call sys ctx ~dst:coord ~meth:"TxnStats" ~args:[] with
  | Ok (Value.Record f) -> (
      match List.assoc_opt "indoubt" f with
      | Some (Value.Int 0) | None -> ()
      | Some v -> note ("transactions in doubt: " ^ Value.to_string v))
  | _ -> note "TxnStats failed");
  (* Two isolated 2PC commits on the calm network; the second, with
     every binding cached, gives the exact message count of a commit. *)
  let commit () =
    let m0 = Network.messages_sent net in
    (match
       Api.call sys ctx ~dst:coord ~meth:"TxnRun"
         ~args:[ Value.Str "2pc"; Value.List [ txn_step loids.(0); txn_step loids.(1) ] ]
     with
    | Ok _ -> ()
    | Error e -> note ("isolated commit: " ^ Err.to_string e));
    settle ();
    Network.messages_sent net - m0
  in
  ignore (commit ());
  let commit_msgs = commit () in
  let store_total f =
    float_of_int
      (List.fold_left (fun acc (s : System.site) -> acc + f s.storage) 0 (System.sites sys))
  in
  let l0, h0, e0 = k0 and l1, h1, e1 = k1 in
  {
    Round.blank with
    setup_s;
    boot_s;
    create_us;
    measure_s;
    ref_s;
    attempted = !attempted;
    failed = !failed;
    lat_ms = Round.contents lat;
    late_ms = !late *. 1000.0;
    delta = diff c0 c1;
    cache = (l1 - l0, h1 - h0, e1 - e0);
    resolve_ms_p50 = Round.resolve_ms_p50 sys;
    table = [ ("msgs_2pc_commit", commit_msgs) ];
    extra =
      [
        ("store.bytes_end", store_total Persistent.total_bytes);
        ("store.files_end", store_total Persistent.total_files);
        ("txn.commits", float_of_int !commits);
        ("txn.aborts", float_of_int !aborted);
      ];
    violations = List.rev !problems;
    digest = digest sys;
    retries = tally.n_retry;
    rebinds = tally.n_rebind;
    wait_ms = Round.waits dues;
    payloads;
    delays;
    loid_seq = Array.of_list (List.rev !loid_seq);
    cache_capacity = population;
  }
