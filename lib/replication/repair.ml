module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Env = Legion_sec.Env
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Impl = Legion_core.Impl
module Opr = Legion_core.Opr
module Script = Legion_sim.Script

type t = {
  ctx : Runtime.ctx;
  rt : Runtime.t;
  net : Runtime.incoming Network.t;
  loid : Loid.t;
  opr : Opr.t;  (* identity template: kind/units/agent/capacity *)
  semantic : Address.semantic;
  register_with : Loid.t option;
  miss_threshold : int;
  mutable pool : Network.host_id list;
  (* Member order is the Object Address element order and the snapshot
     preference order; one entry per replica, so a short list. *)
  mutable replicas : (Network.host_id * Runtime.proc) list;
  misses : (Network.host_id, int) Hashtbl.t;
  mutable losses : int;
  mutable repairs : int;
  mutable armed : bool;
  mutable watcher : Network.watcher option;
}

let replica_count m = List.length m.replicas
let replica_hosts m = List.map fst m.replicas
let losses m = m.losses
let repairs m = m.repairs
let is_member m h = List.mem_assoc h m.replicas

let address m =
  Address.make ~semantic:m.semantic
    (List.map (fun (_, p) -> Runtime.element_of p) m.replicas)

let env_of m = Env.of_self (Runtime.proc_loid m.ctx.Runtime.self)

let emit m kind =
  Runtime.emit m.rt ~host:(Runtime.proc_host m.ctx.Runtime.self) kind

let reregister m k =
  match m.register_with with
  | None -> k (Ok ())
  | Some cls ->
      Runtime.invoke m.ctx ~dst:cls ~meth:"RegisterInstance"
        ~args:[ Loid.to_value m.loid; Address.to_value (address m) ]
        (fun r -> match r with Ok _ -> k (Ok ()) | Error e -> k (Error e))

let deploy ~ctx ~net ~loid ~opr ~hosts ~pool ~semantic ?register_with
    ?(miss_threshold = 2) k =
  let rt = ctx.Runtime.rt in
  match Replicate.deploy rt ~loid ~opr ~hosts ~semantic with
  | Error msg -> k (Error (Err.Internal msg))
  | Ok (procs, _address) ->
      let m =
        {
          ctx;
          rt;
          net;
          loid;
          opr;
          semantic;
          register_with;
          miss_threshold;
          pool;
          replicas = List.combine hosts procs;
          misses = Hashtbl.create 8;
          losses = 0;
          repairs = 0;
          armed = false;
          watcher = None;
        }
      in
      reregister m (fun r -> k (Result.map (fun () -> m) r))

(* A spare must be up and not already hosting a member of the set:
   co-locating two replicas would let one host failure take out both. *)
let pick_spare m =
  List.find_opt
    (fun h -> Network.host_is_up m.net h && not (is_member m h))
    m.pool

(* Restore the replication factor after losing the replica on
   [dead_host]: drop it from the set, pull the freshest surviving state
   (the survivors all acked every committed write, so any of them is
   current — take the first that answers), open a new incarnation so
   the dead placement and any stale address fence with [Stale_epoch],
   carry the survivors across, activate the replacement from the copied
   state on a spare host, and re-register the rebuilt multi-element
   Object Address with the responsible class. *)
let repair m dead_host k =
  if not (is_member m dead_host) then k (Ok false)
  else (
    m.replicas <- List.remove_assoc dead_host m.replicas;
    Hashtbl.remove m.misses dead_host;
    m.losses <- m.losses + 1;
    Runtime.mark_dead m.rt m.loid;
    emit m
      (Event.Replica_lost
         {
           loid = m.loid;
           host = dead_host;
           remaining = List.length m.replicas;
         });
    match m.replicas with
    | [] -> k (Error (Err.Internal "replica repair: no survivors"))
    | survivors ->
        let budget = (Runtime.config m.rt).Runtime.call_timeout /. 2. in
        let env = env_of m in
        let replace states =
          match pick_spare m with
          | None -> k (Error (Err.Refused "replica repair: no spare host"))
          | Some spare ->
              let epoch = Runtime.bump_epoch m.rt m.loid in
              List.iter (fun (_, p) -> Runtime.refresh_epoch m.rt p) m.replicas;
              (* spawn inside activate defaults to the freshly bumped
                 current epoch, so the replacement belongs to the new
                 incarnation. *)
              match
                Impl.activate m.rt ~host:spare ~loid:m.loid { m.opr with states }
              with
              | Error msg -> k (Error (Err.Internal msg))
              | Ok proc ->
                  m.replicas <- m.replicas @ [ (spare, proc) ];
                  m.repairs <- m.repairs + 1;
                  emit m
                    (Event.Replica_repair
                       { loid = m.loid; host = spare; epoch });
                  reregister m (fun r -> k (Result.map (fun () -> true) r))
        in
        let rec snapshot = function
          | [] ->
              k
                (Error
                   (Err.Unreachable
                      "replica repair: no survivor answered SaveState"))
          | (_, p) :: rest ->
              let addr = Address.make [ Runtime.element_of p ] in
              Runtime.invoke_address m.ctx ~timeout:budget ~address:addr
                ~dst:m.loid ~meth:"SaveState" ~args:[] ~env (fun r ->
                  match r with
                  | Ok (Value.Record states) -> replace states
                  | Ok _ | Error _ -> snapshot rest)
        in
        snapshot survivors)

(* One failure-detection pass: probe every replica in place with a
   cheap builtin over its own single-element address (short,
   single-attempt budget — a scan over possibly-dead hosts must not
   burn the full retransmission policy per member). [miss_threshold]
   consecutive missed probes confirm the replica dead and trigger
   repair; any answer resets the count. Repairs run sequentially so two
   losses in one sweep still restore the factor one at a time. *)
let sweep m k =
  if not m.armed then k 0
  else begin
    let budget = (Runtime.config m.rt).Runtime.call_timeout /. 4. in
    let env = env_of m in
    let rec probe repaired = function
      | [] -> k repaired
      | (h, p) :: rest ->
          if not (is_member m h) then probe repaired rest
          else
            let addr = Address.make [ Runtime.element_of p ] in
            Runtime.invoke_address m.ctx ~timeout:budget ~address:addr
              ~dst:m.loid ~meth:"GetMethodNames" ~args:[] ~env (fun r ->
                match r with
                | Ok _ ->
                    Hashtbl.remove m.misses h;
                    probe repaired rest
                | Error _ ->
                    let n =
                      1 + Option.value ~default:0 (Hashtbl.find_opt m.misses h)
                    in
                    Hashtbl.replace m.misses h n;
                    if n >= m.miss_threshold then
                      repair m h (fun r ->
                          probe
                            (repaired + match r with Ok true -> 1 | _ -> 0)
                            rest)
                    else probe repaired rest)
    in
    probe 0 m.replicas
  end

let start m ~period ~until =
  m.armed <- true;
  (if m.watcher = None then
     (* Instant path: a confirmed host-down transition repairs without
        waiting for the probe counter — the sweep remains the backstop
        for silent failures the network layer never reports. *)
     let w =
       Network.add_host_watcher m.net (fun h ~up ->
           if m.armed && (not up) && is_member m h then
             repair m h (fun _ -> ()))
     in
     m.watcher <- Some w);
  Script.every (Runtime.sim m.rt) ~period ~until (fun () ->
      sweep m (fun _ -> ()))

let stop m =
  m.armed <- false;
  match m.watcher with
  | None -> ()
  | Some w ->
      (* Deregister, not just disarm: a disarmed-but-registered closure
         survives the manager and fires on every later host transition
         — repeated start/stop cycles used to accumulate them. *)
      Network.remove_watcher m.net w;
      m.watcher <- None

let reconcile_on_heal ctx ~net ~groups =
  let env = Env.of_self (Runtime.proc_loid ctx.Runtime.self) in
  Network.add_partition_watcher net (fun _a _b ~cut ->
      if not cut then
        List.iter
          (fun g ->
            Runtime.invoke ctx ~dst:g ~meth:"Reconcile" ~args:[] ~env (fun _ ->
                ()))
          groups)
