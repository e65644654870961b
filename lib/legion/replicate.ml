(* E17 — self-healing replication: repair sweeps, quorum fencing, and
   anti-entropy after a partition heal. See replicate.mli. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Well_known = Legion_core.Well_known
module Opr = Legion_core.Opr
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Network = Legion_net.Network
module Script = Legion_sim.Script
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module Group_part = Legion_repl.Group_part
module Repair = Legion_repl.Repair
module Std_parts = Legion_objects.Std_parts

type config = {
  seed : int64;
  replicas : int;
  kills : int;
  kill_every : float;
  period : float;
}

let default = { seed = 29L; replicas = 3; kills = 3; kill_every = 4.0; period = 0.05 }

type repair = {
  availability : float;
  calls : int;
  lost : int;
  repaired : int;
  final_factor : int;
}

type split = {
  fenced : bool;
  maj_ok : int;
  min_fenced : int;
  min_drift : int;
  divergent_after : int option;
  distinct : int;
  noquorum_events : int;
  reconciles : int;
}

type report = {
  cfg : config;
  repair : repair;
  splits : split list;
  violations : string list;
}

let counter_class sys ctx =
  Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name:"Counter"
    ~units:[ Std_parts.counter_unit ] ~idl:Std_parts.counter_idl ()

(* --- Part A: replica-kill sweep with the repair manager armed --- *)

let run_repair cfg =
  Std_parts.register_counter ();
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let sys =
    System.boot ~seed:cfg.seed ~trace_capacity:500_000
      ~rt_config:{ Runtime.default_config with call_timeout = 0.4 }
      ~sites:[ ("a", 3); ("b", 3); ("c", 3); ("d", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let net = System.net sys
  and rt = System.rt sys
  and sim = System.sim sys
  and obs = System.obs sys in
  let cls = counter_class sys ctx in
  let loid = Api.create_object_exn sys ctx ~cls () in
  let opr =
    Opr.make ~kind:Well_known.kind_app
      ~units:[ Std_parts.counter_unit; Well_known.unit_object ]
      ()
  in
  (* Replicas start on the first worker of the first sites; the spare
     pool adds every site's second worker and the last site's first. *)
  let sites = System.sites sys in
  let worker n (s : System.site) = List.nth s.System.net_hosts n in
  let hosts = List.filteri (fun i _ -> i < cfg.replicas) (List.map (worker 1) sites) in
  let pool = hosts @ List.map (worker 2) sites @ [ worker 1 (List.nth sites 3) ] in
  let mgr =
    match
      Api.sync sys (fun k ->
          Repair.deploy ~ctx ~net ~loid ~opr ~hosts ~pool
            ~semantic:Address.Ordered_failover ~register_with:cls k)
    with
    | Ok m -> m
    | Error e -> failwith ("E17: deploy: " ^ Err.to_string e)
  in
  let t0 = System.now sys in
  let t_end = t0 +. ((cfg.kill_every *. float_of_int (cfg.kills + 1)) +. 2.0) in
  Repair.start mgr ~period:0.3 ~until:t_end;
  let mark = Recorder.total obs in
  (* Crash the current primary every [kill_every] seconds, and sample
     the replication factor just before each following kill. *)
  let factor_samples = ref [] in
  for i = 1 to cfg.kills do
    let t_kill = t0 +. (float_of_int i *. cfg.kill_every) in
    Script.at sim ~time:t_kill (fun () ->
        match Repair.replica_hosts mgr with
        | h :: _ -> Runtime.crash_host rt h
        | [] -> ());
    Script.at sim
      ~time:(t_kill +. cfg.kill_every -. 0.5)
      (fun () -> factor_samples := Repair.replica_count mgr :: !factor_samples)
  done;
  let ok = ref 0 and calls = ref 0 in
  Script.every sim ~period:cfg.period ~until:(t_end -. 1e-9) (fun () ->
      incr calls;
      Runtime.invoke ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 1 ]
        (function Ok _ -> incr ok | Error _ -> ()));
  System.run sys;
  let is_lost = Trace.replica_lost ~loid ()
  and is_repair = Trace.replica_repair ~loid () in
  let lost, repaired =
    Recorder.fold_since obs mark
      (fun ((lost, repaired) as acc) e ->
        if is_lost e then (lost + 1, repaired)
        else if is_repair e then (lost, repaired + 1)
        else acc)
      (0, 0)
  in
  let availability = float_of_int !ok /. float_of_int !calls in
  if !calls = 0 then violate "no calls issued across the kill sweep"
  else if availability < 0.99 then
    violate "availability %.4f below the 0.99 floor (%d/%d)" availability !ok
      !calls;
  List.iter
    (fun f ->
      if f <> cfg.replicas then
        violate "replication factor %d not restored to %d before the next kill"
          f cfg.replicas)
    !factor_samples;
  let final_factor = Repair.replica_count mgr in
  if final_factor <> cfg.replicas then
    violate "final replication factor %d, wanted %d" final_factor cfg.replicas;
  if lost < cfg.kills || repaired < cfg.kills then
    violate "traced %d losses / %d repairs, expected %d each" lost repaired
      cfg.kills;
  ({ availability; calls = !calls; lost; repaired; final_factor }, List.rev !violations)

(* --- Part B: 3/2 split, fenced vs unfenced quorum group --- *)

let n_partition_writes = 5

let run_partition cfg ~fenced =
  Std_parts.register_counter ();
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  Group_part.register ();
  let sys =
    System.boot ~seed:(Int64.add cfg.seed 2L) ~trace_capacity:500_000
      ~rt_config:{ Runtime.default_config with call_timeout = 0.5 }
      ~sites:[ ("a", 3); ("b", 3); ("c", 3) ]
      ()
  in
  let net = System.net sys and obs = System.obs sys in
  let ctx = System.client sys () in
  let ctx_min = System.client sys ~site:2 () in
  let counter_cls = counter_class sys ctx in
  let group_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name:"Group"
      ~units:[ Group_part.unit_name ] ()
  in
  let pinned cls s =
    Api.create_object_exn sys ctx ~cls ~eager:true
      ~magistrate:(System.site sys s).System.magistrate ()
  in
  let g_maj = pinned group_cls 0 in
  let g_min = pinned group_cls 2 in
  let m s = pinned counter_cls s in
  let members = [ m 0; m 0; m 1; m 2; m 2 ] in
  let minority = [ List.nth members 3; List.nth members 4 ] in
  let configure g =
    List.iter
      (fun m ->
        ignore
          (Api.call_exn sys ctx ~dst:g ~meth:"AddMember" ~args:[ Loid.to_value m ]))
      members;
    ignore
      (Api.call_exn sys ctx ~dst:g ~meth:"SetMode" ~args:[ Value.Str "quorum" ]);
    ignore
      (Api.call_exn sys ctx ~dst:g ~meth:"SetFenced" ~args:[ Value.Bool fenced ])
  in
  configure g_maj;
  configure g_min;
  let invoke_via c g args =
    Api.call sys c ~dst:g ~meth:"Invoke"
      ~args:[ Value.Str "Increment"; Value.List args ]
  in
  let value_via c m =
    match Api.call_exn sys c ~dst:m ~meth:"Get" ~args:[] with
    | Value.Int n -> n
    | v -> failwith ("E17: bad Get reply " ^ Value.to_string v)
  in
  (* Warm both heads' member bindings before the cut. *)
  ignore (invoke_via ctx g_maj [ Value.Int 1 ]);
  ignore (invoke_via ctx_min g_min [ Value.Int 1 ]);
  System.run sys;
  let v0_min = List.map (value_via ctx_min) minority in
  Network.set_partitioned net 0 2 true;
  Network.set_partitioned net 1 2 true;
  let mark = Recorder.total obs in
  let maj_ok = ref 0 and min_fenced = ref 0 in
  for _ = 1 to n_partition_writes do
    (match invoke_via ctx g_maj [ Value.Int 10 ] with
    | Ok _ -> incr maj_ok
    | Error _ -> ());
    match invoke_via ctx_min g_min [ Value.Int 100 ] with
    | Error (Err.No_quorum _) -> incr min_fenced
    | Error _ | Ok _ -> ()
  done;
  (* How far the fenced minority moved while cut off: zero means the
     rejections really applied nothing. *)
  let min_drift =
    List.fold_left2
      (fun acc m v0 -> acc + (value_via ctx_min m - v0))
      0 minority v0_min
  in
  (* Heal with the anti-entropy watcher armed (fenced mode only — the
     baseline shows what happens without the machinery). *)
  if fenced then ignore (Repair.reconcile_on_heal ctx ~net ~groups:[ g_maj ]);
  Network.set_partitioned net 0 2 false;
  Network.set_partitioned net 1 2 false;
  System.run sys;
  let divergent_after =
    if fenced then begin
      (* One sweep to catch retransmission stragglers, then the next
         must find nothing left to repair. *)
      ignore (Api.call_exn sys ctx ~dst:g_maj ~meth:"Reconcile" ~args:[]);
      match Api.call_exn sys ctx ~dst:g_maj ~meth:"Reconcile" ~args:[] with
      | Value.Record fields -> (
          match List.assoc_opt "divergent" fields with
          | Some (Value.Int d) -> Some d
          | _ -> failwith "E17: bad Reconcile reply")
      | _ -> failwith "E17: bad Reconcile reply"
    end
    else None
  in
  let final_values = List.map (value_via ctx) members in
  let distinct = List.length (List.sort_uniq compare final_values) in
  let is_noquorum = Trace.no_quorum ~loid:g_min ()
  and is_reconcile = Trace.reconcile ~loid:g_maj () in
  let noquorum_events, reconciles =
    Recorder.fold_since obs mark
      (fun ((noquorum, reconciles) as acc) e ->
        if is_noquorum e then (noquorum + 1, reconciles)
        else if is_reconcile e then (noquorum, reconciles + 1)
        else acc)
      (0, 0)
  in
  if fenced then begin
    if !min_fenced < n_partition_writes then
      violate "only %d/%d minority writes fenced with No_quorum" !min_fenced
        n_partition_writes;
    if min_drift <> 0 then
      violate "fenced minority members drifted by %d during the partition"
        min_drift;
    (match divergent_after with
    | Some d when d <> 0 ->
        violate "%d members still divergent after anti-entropy" d
    | _ -> ());
    if distinct <> 1 then
      violate "%d distinct member states survived the heal" distinct;
    if noquorum_events = 0 then violate "no NoQuorum event traced";
    if reconciles = 0 then violate "no Reconcile event traced"
  end
  else begin
    (* The point of the baseline: failed minority writes still mutated
       their reachable members, and the divergence survives the heal. *)
    if min_drift = 0 then violate "unfenced baseline unexpectedly applied nothing";
    if distinct < 2 then violate "unfenced baseline unexpectedly converged"
  end;
  ( {
      fenced;
      maj_ok = !maj_ok;
      min_fenced = !min_fenced;
      min_drift;
      divergent_after;
      distinct;
      noquorum_events;
      reconciles;
    },
    List.rev !violations )

let run cfg =
  let repair, v_repair = run_repair cfg in
  let fenced, v_fenced = run_partition cfg ~fenced:true in
  let unfenced, v_unfenced = run_partition cfg ~fenced:false in
  {
    cfg;
    repair;
    splits = [ fenced; unfenced ];
    violations = List.map (( ^ ) "E17: ") (v_repair @ v_fenced @ v_unfenced);
  }

let violations r = r.violations

(* --- Reporting. --- *)

let mode s = if s.fenced then "fenced" else "unfenced"

(* With no calls issued the availability is undefined (0/0). *)
let availability_pct a =
  if a.calls = 0 then None else Some (100.0 *. a.availability)

let to_json r =
  let a = r.repair in
  let split_json s =
    Printf.sprintf
      "{\"mode\":%S,\"majority_commits\":%d,\"minority_fenced\":%d,\
       \"minority_drift\":%d,\"divergent_after_ae\":%s,\"distinct_states\":%d,\
       \"noquorum_events\":%d,\"reconciles\":%d}"
      (mode s) s.maj_ok s.min_fenced s.min_drift
      (match s.divergent_after with Some d -> string_of_int d | None -> "null")
      s.distinct s.noquorum_events s.reconciles
  in
  Printf.sprintf "{\"experiment\":\"e17\",\"repair\":%s,\"partition\":[%s]}"
    (Printf.sprintf
       "{\"r\":%d,\"kills\":%d,\"availability_pct\":%s,\"lost\":%d,\
        \"repaired\":%d,\"final_factor\":%d,\"calls\":%d}"
       r.cfg.replicas r.cfg.kills
       (match availability_pct a with
       | Some p -> Printf.sprintf "%.2f" p
       | None -> "null")
       a.lost a.repaired a.final_factor a.calls)
    (String.concat "," (List.map split_json r.splits))

let print r =
  let a = r.repair in
  Legion_util.Table.print
    ~title:
      (Printf.sprintf
         "E17a Replica repair under a kill sweep (r=%d, kill every %.0f s, %d \
          kills)"
         r.cfg.replicas r.cfg.kill_every r.cfg.kills)
    ~header:[ "r"; "kills"; "availability"; "lost"; "repaired"; "final r" ]
    [
      [
        string_of_int r.cfg.replicas;
        string_of_int r.cfg.kills;
        (match availability_pct a with
        | Some p -> Printf.sprintf "%.2f%%" p
        | None -> "-");
        string_of_int a.lost;
        string_of_int a.repaired;
        string_of_int a.final_factor;
      ];
    ];
  Legion_util.Table.print
    ~title:
      (Printf.sprintf
         "E17b Quorum fencing and anti-entropy across a 3/2 split (%d writes \
          per side)"
         n_partition_writes)
    ~header:
      [ "mode"; "maj commits"; "min fenced"; "min drift"; "divergent"; "states" ]
    (List.map
       (fun s ->
         [
           mode s;
           string_of_int s.maj_ok;
           string_of_int s.min_fenced;
           string_of_int s.min_drift;
           (match s.divergent_after with Some d -> string_of_int d | None -> "-");
           string_of_int s.distinct;
         ])
       r.splits)
