module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Cache = Legion_naming.Cache
module Value = Legion_wire.Value
module Env = Legion_sec.Env
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Event = Legion_obs.Event
module Recorder = Legion_obs.Recorder

type admission = {
  max_inflight : int;
  max_queue : int;
  retry_after_hint : float;
}

let default_admission =
  { max_inflight = 8; max_queue = 32; retry_after_hint = 0.05 }

type config = {
  call_timeout : float;
  max_rebinds : int;
  binding_ttl : float option;
  retry : Retry.t;
  admission : admission option;
  breaker : Breaker.config option;
  dedup_capacity : int option;
}

let default_config =
  {
    call_timeout = 5.0;
    max_rebinds = 3;
    binding_ttl = None;
    retry = Retry.default;
    admission = None;
    breaker = None;
    dedup_capacity = Some 4096;
  }

type call = { meth : string; args : Value.t list; env : Env.t }
type reply = (Value.t, Err.t) result

(* What reaches a host. Calls and replies cross the network as they are;
   [In_bounce] and [In_garbage] arise only from [decode_incoming] of a
   damaged frame. *)
type incoming =
  | In_call of {
      id : int;
      src_loid : Loid.t;
      src_host : int;
      dst_loid : Loid.t;
      dst_slot : int;
      call : call;
    }
  | In_reply of { id : int; reply : reply }
  | In_bounce of { id : int; src_host : int; err : Err.t }
      (* A recognisable call whose body would not decode: bounce the
         typed error back instead of leaving the caller to time out. *)
  | In_garbage of string

(* Admission wait lanes under deficit round robin (DRR). A budgeted
   process parks excess arrivals in a bounded lane: one per tenant when
   the runtime serves a tenant registry, otherwise one anonymous
   weight-1 lane shared by every caller, which DRR serves in arrival
   order. Freed inflight slots are granted by cycling the ring of
   backlogged lanes: each visit tops a lane's deficit up by its weight
   and serves whole calls while the deficit lasts, so service is
   weight-proportional and one flooding tenant can neither displace
   other tenants' queued calls nor monopolise the dispatch order. *)
type lane = {
  l_tenant : Tenant.tenant option;  (* None = the anonymous lane *)
  l_weight : float;
  l_q : (call * (reply -> unit)) Queue.t;
  mutable l_deficit : float;
  mutable l_linked : bool;  (* currently a member of the ring *)
}

type drr = {
  d_lanes : (string, lane) Hashtbl.t;  (* lookup only, never iterated *)
  d_ring : lane Queue.t;  (* service order; only backlogged lanes *)
  mutable d_count : int;  (* calls parked across all lanes *)
}

type proc = {
  loid : Loid.t;
  host : Network.host_id;
  slot : int;
  kind : string;
  place : place;  (* its LOID's record *)
  mutable epoch : int;  (* incarnation this placement belongs to *)
  cache_capacity : int option;
  mutable cache : Cache.t option;  (* comm-layer binding cache, made on first use *)
  counter : Counter.t;
  mutable drr : drr option;  (* admission wait lanes, made on first park *)
  mutable admission : admission option;
  mutable inflight : int;  (* handlers started, reply not yet sent *)
  mutable live : bool;
  mutable handler : handler;
  mutable ba : Address.t option;
  mutable last_delivery : float;  (* when a call last reached it *)
  mutable caller_sites : (int * int) list;
      (* site -> cumulative calls received from it; the locality signal
         the elastic rebalancer reads to migrate objects toward their
         callers *)
}

(* The runtime's record of one LOID, kept while the LOID has a placement,
   has had its epoch bumped, or carries a ConfirmDead mark, and dropped
   when it is back to none of these. A placement points at its LOID's
   record from [spawn] on, so delivery reads the epoch fence and the
   recovery mark without looking the LOID up. [procs] holds the live
   placements only (a power-failed one stays until it is killed). *)
and place = {
  mutable current : int;  (* the LOID's incarnation, 0 until bumped *)
  mutable procs : proc list;  (* newest first *)
  mutable dead_since : float;
      (* ConfirmDead time, until the first post-recovery delivery; nan
         when unmarked *)
}

and ctx = { rt : t; self : proc }
and handler = ctx -> call -> (reply -> unit) -> unit

and pending = {
  cont : reply -> unit;
  dst_host : int;  (* where the call is headed; crash_host reaps by this *)
  mutable timer : Engine.handle option;  (* current attempt deadline *)
  mutable attempts : int;  (* transmissions so far, >= 1 once sent *)
  started : float;  (* virtual time of the first transmission *)
}

and t = {
  sim : Engine.t;
  net : incoming Network.t;
  registry : Counter.Registry.r;
  prng : Prng.t;
  config : config;
  mutable slot_tbl : proc option array;  (* slot -> instance; O(1) delivery routing *)
  mutable host_changes : int array;  (* host -> resident changes, see [note_host_change] *)
  places : place Loid.Table.t;
  pending : (int, pending) Hashtbl.t;
  attached : (int, unit) Hashtbl.t;  (* hosts with a receiver installed *)
  obs : Recorder.t;
  breakers : Breaker.t option;  (* per-destination circuit state *)
  mutable tenants : Tenant.t option;  (* principal registry; None = untenanted *)
  dedup : Dedup.t option;  (* the exactly-once table; None = disabled *)
  mutable next_slot : int;
  mutable next_call : int;
  mutable delivered : int;
  mutable sheds : int;  (* calls rejected by admission control *)
  mutable dedup_hits : int;  (* duplicate deliveries absorbed or replayed *)
}

let emit rt ~host kind =
  Recorder.emit rt.obs ~host ~site:(Network.site_of rt.net host) kind

(* Slots are allocated globally (never reused), so a plain array is the
   routing table: delivery resolves a destination slot without hashing
   or allocating a key. *)

let slot_get rt slot =
  if slot < 0 || slot >= Array.length rt.slot_tbl then None
  else rt.slot_tbl.(slot)

let slot_set rt slot proc =
  let n = Array.length rt.slot_tbl in
  if slot >= n then begin
    let cap = Stdlib.max 256 (Stdlib.max (slot + 1) (2 * n)) in
    let bigger = Array.make cap None in
    Array.blit rt.slot_tbl 0 bigger 0 n;
    rt.slot_tbl <- bigger
  end;
  rt.slot_tbl.(slot) <- Some proc

(* A Host Object's resident sweep (drop dead placements, reap those
   whose epoch trails their LOID's) can change its result on a host in
   three ways only: a placement there is killed, a LOID placed there has
   its epoch bumped, or a placement there has its epoch refreshed. Each
   bumps the host's count, and a Host Object re-sweeps only when it has
   moved. *)
let note_host_change rt host =
  let n = Array.length rt.host_changes in
  if host >= n then begin
    let bigger = Array.make (Stdlib.max (host + 1) (2 * n)) 0 in
    Array.blit rt.host_changes 0 bigger 0 n;
    rt.host_changes <- bigger
  end;
  rt.host_changes.(host) <- rt.host_changes.(host) + 1

let host_changes rt host =
  if host < Array.length rt.host_changes then rt.host_changes.(host) else 0

(* ------------------------------------------------------------------ *)
(* Epochs (incarnation numbers).                                       *)

let place_of rt loid =
  match Loid.Table.find rt.places loid with
  | Some pl -> pl
  | None ->
      let pl = { current = 0; procs = []; dead_since = Float.nan } in
      Loid.Table.set rt.places loid pl;
      pl

let release rt loid pl =
  if pl.procs = [] && pl.current = 0 && Float.is_nan pl.dead_since then
    Loid.Table.remove rt.places loid

let current_epoch rt loid =
  match Loid.Table.find rt.places loid with Some pl -> pl.current | None -> 0

let bump_epoch rt loid =
  let pl = place_of rt loid in
  pl.current <- pl.current + 1;
  List.iter (fun p -> note_host_change rt p.host) pl.procs;
  pl.current

let kill rt proc =
  if proc.live then begin
    proc.live <- false;
    note_host_change rt proc.host;
    emit rt ~host:proc.host (Event.Deactivate { loid = proc.loid });
    (* Calls parked in the admission lanes will never run; answer them
       rather than leaving their callers to time out. *)
    let answer_parked (_call, reply_to) =
      ignore
        (Engine.schedule rt.sim ~delay:0.0 (fun () ->
             reply_to (Error Err.No_such_object)))
    in
    (match proc.drr with
    | Some d ->
        (* Ring order is the deterministic flush order for the lanes. *)
        Queue.iter
          (fun lane ->
            Queue.iter answer_parked lane.l_q;
            Queue.clear lane.l_q;
            lane.l_linked <- false)
          d.d_ring;
        Queue.clear d.d_ring;
        d.d_count <- 0
    | None -> ());
    rt.slot_tbl.(proc.slot) <- None;
    (* A live placement is in its record's list, so the record is still
       the LOID's. *)
    let pl = proc.place in
    pl.procs <-
      List.filter (fun p -> not (p.host = proc.host && p.slot = proc.slot)) pl.procs;
    release rt proc.loid pl
  end

let placements rt loid =
  match Loid.Table.find rt.places loid with Some pl -> pl.procs | None -> []

let kill_loid rt loid = List.iter (kill rt) (placements rt loid)

(* Ascending slot order = activation order, so recovery sweeps are
   deterministic. *)
let procs_on_host rt host =
  let acc = ref [] in
  for i = Array.length rt.slot_tbl - 1 downto 0 do
    match rt.slot_tbl.(i) with
    | Some proc when proc.host = host && proc.live -> acc := proc :: !acc
    | _ -> ()
  done;
  !acc

(* A rebooted host must not resurrect placements that were superseded
   while it was down: any surviving proc whose epoch trails its LOID's
   current incarnation is fenced off and reaped, never heard from. *)
let reap_rebooted rt host =
  List.iter
    (fun p ->
      let cur = p.place.current in
      if p.epoch < cur then begin
        emit rt ~host
          (Event.Fence { loid = p.loid; epoch = p.epoch; current = cur });
        kill rt p
      end)
    (procs_on_host rt host)

let create ~sim ~net ~registry ~prng ?(config = default_config) ?obs () =
  let obs =
    match obs with
    | Some r -> r
    | None -> Recorder.create ~clock:(fun () -> Engine.now sim) ()
  in
  let rt =
    {
      sim;
      net;
      registry;
      prng;
      config;
      slot_tbl = Array.make 256 None;
      host_changes = Array.make 64 0;
      places = Loid.Table.create ();
      pending = Hashtbl.create 256;
      attached = Hashtbl.create 64;
      obs;
      breakers = Option.map Breaker.create config.breaker;
      tenants = None;
      dedup =
        Option.map
          (fun capacity ->
            if capacity <= 0 then invalid_arg "Runtime.create: dedup_capacity";
            Dedup.create ~capacity)
          config.dedup_capacity;
      next_slot = 0;
      next_call = 0;
      delivered = 0;
      sheds = 0;
      dedup_hits = 0;
    }
  in
  ignore
    (Network.add_host_watcher net (fun h ~up -> if up then reap_rebooted rt h));
  rt

let sim rt = rt.sim
let net rt = rt.net
let registry rt = rt.registry
let prng rt = rt.prng
let config rt = rt.config
let now rt = Engine.now rt.sim
let obs rt = rt.obs

let mark_dead rt loid =
  let pl = place_of rt loid in
  if Float.is_nan pl.dead_since then pl.dead_since <- now rt

(* ------------------------------------------------------------------ *)
(* The record form of calls and replies (PROTOCOL §3): what a corrupted
   frame is sealed from and parsed back with, what the tap sees, and
   what a message's size is charged by.                                *)

let encode_call ~id ~src_loid ~src_host ~dst_loid ~dst_slot c =
  Value.Record
    [
      ("k", Value.Str "c");
      ("id", Value.Int id);
      ("sl", Loid.to_value src_loid);
      ("sh", Value.Int src_host);
      ("dl", Loid.to_value dst_loid);
      ("ds", Value.Int dst_slot);
      ("m", Value.Str c.meth);
      ("a", Value.List c.args);
      ("e", Env.to_value c.env);
    ]

let encode_reply ~id (r : reply) =
  match r with
  | Ok v ->
      Value.Record [ ("k", Value.Str "r"); ("id", Value.Int id); ("ok", Value.Bool true); ("v", v) ]
  | Error e ->
      Value.Record
        [
          ("k", Value.Str "r");
          ("id", Value.Int id);
          ("ok", Value.Bool false);
          ("v", Err.to_value e);
        ]

let ( let* ) r f = Result.bind r f

let decode_incoming v : incoming =
  let field_err e = Format.asprintf "%a" Value.pp_error e in
  let get name conv = Result.map_error field_err (Result.bind (Value.field v name) conv) in
  let parse =
    let* kind = get "k" Value.to_str in
    match kind with
    | "c" ->
        let* id = get "id" Value.to_int in
        let* src_loid = Result.bind (Result.map_error field_err (Value.field v "sl")) Loid.of_value in
        let* src_host = get "sh" Value.to_int in
        let* dst_loid = Result.bind (Result.map_error field_err (Value.field v "dl")) Loid.of_value in
        let* dst_slot = get "ds" Value.to_int in
        let* meth = get "m" Value.to_str in
        let* args =
          match Value.field v "a" with
          | Ok (Value.List args) -> Ok args
          | Ok _ -> Error "call args not a list"
          | Error e -> Error (field_err e)
        in
        let* env = Result.bind (Result.map_error field_err (Value.field v "e")) Env.of_value in
        Ok
          (In_call
             { id; src_loid; src_host; dst_loid; dst_slot; call = { meth; args; env } })
    | "r" ->
        let* id = get "id" Value.to_int in
        let* ok = get "ok" Value.to_bool in
        let* payload = Result.map_error field_err (Value.field v "v") in
        if ok then Ok (In_reply { id; reply = Ok payload })
        else
          let* e = Err.of_value payload in
          Ok (In_reply { id; reply = Error e })
    | other -> Error (Printf.sprintf "unknown message kind %S" other)
  in
  match parse with
  | Ok msg -> msg
  | Error e -> (
      (* Fail-closed salvage of a partially-decodable frame: when the
         kind and correlation id still parse, surface the typed
         [Err.Corrupt] — a reply-shaped frame fails the caller's
         pending call promptly, a call-shaped frame is bounced back —
         instead of silently burning the caller's timeout. Anything
         less is garbage and is ignored (never an exception). *)
      let int_field name =
        match Value.field_opt v name with
        | Some f -> Result.to_option (Value.to_int f)
        | None -> None
      in
      match (Value.field_opt v "k", int_field "id") with
      | Some (Value.Str "r"), Some id ->
          In_reply { id; reply = Error (Err.Corrupt e) }
      | Some (Value.Str "c"), Some id -> (
          match int_field "sh" with
          | Some src_host -> In_bounce { id; src_host; err = Err.Corrupt e }
          | None -> In_garbage e)
      | _ -> In_garbage e)

let to_value = function
  | In_call { id; src_loid; src_host; dst_loid; dst_slot; call } ->
      encode_call ~id ~src_loid ~src_host ~dst_loid ~dst_slot call
  | In_reply { id; reply } -> encode_reply ~id reply
  | In_bounce _ | In_garbage _ ->
      invalid_arg "Runtime: only calls and replies are sent"

(* [Value.size_bytes (to_value m)] by formula, field by field as the
   encoders above lay them out: a record is 5 bytes, a field 4 plus its
   name plus its value, an Int 9, a Bool 2, a Str or a List 5 plus its
   body. *)
let size =
  let record = 5 and int = 9 and bool = 2 in
  let field name v = 4 + String.length name + v in
  let str s = 5 + String.length s in
  function
  | In_call { src_loid; dst_loid; call; _ } ->
      let args = List.fold_left (fun n v -> n + Value.size_bytes v) 0 call.args in
      record + field "k" (str "c") + field "id" int
      + field "sl" (Loid.size_bytes src_loid)
      + field "sh" int
      + field "dl" (Loid.size_bytes dst_loid)
      + field "ds" int
      + field "m" (str call.meth)
      + field "a" (5 + args)
      + field "e" (Env.size_bytes call.env)
  | In_reply { reply; _ } ->
      let v = match reply with Ok v -> v | Error e -> Err.to_value e in
      record + field "k" (str "r") + field "id" int + field "ok" bool
      + field "v" (Value.size_bytes v)
  | In_bounce _ | In_garbage _ ->
      invalid_arg "Runtime: only calls and replies are sent"

let codec = { Network.size; to_value; of_value = decode_incoming }

(* ------------------------------------------------------------------ *)
(* Breaker bookkeeping.                                                *)

(* Every completed call reports its outcome for its destination host so
   the per-destination circuit can open (fail fast) and close again.
   Any real reply — even an application error — proves the path and the
   destination are alive; only sheds and transport-level silence count
   against the circuit. *)
let breaker_outcome : reply -> Breaker.outcome = function
  | Ok _ -> Breaker.Success
  | Error (Err.Overloaded { retry_after }) -> Breaker.Saturated retry_after
  | Error (Err.Timeout | Err.Unreachable _) -> Breaker.Transport_failure
  (* [Quota_exceeded] lands in the Success bucket deliberately: it means
     one tenant's own budget ran dry while the destination keeps serving
     everyone else, and a per-tenant shed must not open a circuit that
     is shared by all tenants on the path. *)
  | Error _ -> Breaker.Success

let breaker_note rt ~at_host ~dst_host outcome =
  match rt.breakers with
  | None -> ()
  | Some b -> (
      match Breaker.record b ~now:(Engine.now rt.sim) dst_host outcome with
      | None -> ()
      | Some (Breaker.Opened { failures }) ->
          emit rt ~host:at_host (Event.Breaker_open { host = dst_host; failures })
      | Some Breaker.Closed_circuit ->
          emit rt ~host:at_host (Event.Breaker_close { host = dst_host }))

(* ------------------------------------------------------------------ *)
(* Delivery and admission control.                                     *)

let queue_depth proc = match proc.drr with Some d -> d.d_count | None -> 0

let overload_hint a ~queued =
  let fill = float_of_int queued /. float_of_int (max 1 a.max_queue) in
  a.retry_after_hint *. (1.0 +. fill)

let overload_error a ~queued =
  Err.Overloaded { retry_after = overload_hint a ~queued }

(* Also the degradation hook for object implementations: a part that
   sheds by policy (a class refusing creates under load) uses the same
   event and error shape as the admission layer. *)
let shed_reply rt proc ~meth =
  let queued = queue_depth proc in
  rt.sheds <- rt.sheds + 1;
  emit rt ~host:proc.host
    (Event.Shed { loid = proc.loid; meth; queue = queued; tenant = None });
  let a = Option.value ~default:default_admission proc.admission in
  overload_error a ~queued

let shed_call rt proc ~meth reply_to =
  reply_to (Error (shed_reply rt proc ~meth))

(* A tenant-budget shed: attributed to the charged tenant in both the
   event stream and the error, unlike the anonymous [Overloaded]. *)
let quota_error rt proc tn ~meth ~retry_after =
  rt.sheds <- rt.sheds + 1;
  Tenant.note_shed tn;
  emit rt ~host:proc.host
    (Event.Shed
       {
         loid = proc.loid;
         meth;
         queue = queue_depth proc;
         tenant = Some (Tenant.name tn);
       });
  Err.Quota_exceeded { tenant = Tenant.name tn; retry_after }

let quota_shed rt proc tn ~meth ~retry_after reply_to =
  reply_to (Error (quota_error rt proc tn ~meth ~retry_after))

let drr_of proc =
  match proc.drr with
  | Some d -> d
  | None ->
      let d =
        { d_lanes = Hashtbl.create 8; d_ring = Queue.create (); d_count = 0 }
      in
      proc.drr <- Some d;
      d

(* [""] keys the anonymous lane: {!Tenant.register} rejects it as a
   tenant name. *)
let lane_of d tn =
  let key = match tn with Some tn -> Tenant.name tn | None -> "" in
  match Hashtbl.find_opt d.d_lanes key with
  | Some lane -> lane
  | None ->
      let weight = match tn with Some tn -> Tenant.weight tn | None -> 1 in
      let lane =
        {
          l_tenant = tn;
          l_weight = float_of_int weight;
          l_q = Queue.create ();
          l_deficit = 0.0;
          l_linked = false;
        }
      in
      Hashtbl.add d.d_lanes key lane;
      lane

(* A lane (re-)entering the ring starts with one quantum of deficit, so
   a tenant returning from idle is served promptly without accumulating
   credit while absent. *)
let link_lane d lane =
  if not lane.l_linked then begin
    lane.l_linked <- true;
    lane.l_deficit <- lane.l_weight;
    Queue.add lane d.d_ring
  end

(* Run the handler for an admitted call. The caller has already counted
   the inflight slot (and the tenant's, when tenancy is on); the wrapped
   reply continuation releases both and pulls the next queued call in,
   so the budget is conserved even if a handler replies synchronously. *)
let rec deliver_call rt proc ~queued ~tn call reply_to =
  proc.counter |> Counter.incr;
  proc.last_delivery <- Engine.now rt.sim;
  rt.delivered <- rt.delivered + 1;
  (* Only a live placement is delivered to, so its record is the
     LOID's. *)
  let pl = proc.place in
  if not (Float.is_nan pl.dead_since) then begin
    Recorder.observe rt.obs ~component:"rt.mttr" (Engine.now rt.sim -. pl.dead_since);
    pl.dead_since <- Float.nan
  end;
  (match proc.admission with
  | Some _ ->
      emit rt ~host:proc.host
        (Event.Admit
           {
             loid = proc.loid;
             meth = call.meth;
             queued;
             tenant = Option.map Tenant.name tn;
           })
  | None -> ());
  let replied = ref false in
  let reply_once r =
    if not !replied then begin
      replied := true;
      proc.inflight <- proc.inflight - 1;
      Option.iter Tenant.end_call tn;
      drain_queue rt proc;
      reply_to r
    end
  in
  proc.handler { rt; self = proc } call reply_once

and drain_queue rt proc =
  match (proc.admission, proc.drr) with
  | Some a, Some d when proc.inflight < a.max_inflight -> drain_drr rt proc d
  | _ -> ()

(* Grant the freed slot under deficit round robin: walk the ring, topping
   deficits up by one weight-quantum per rotation, and serve the first
   lane holding a whole quantum. A lane keeps the head (and its residual
   deficit) until the quantum is spent, then rotates to the tail; empty
   lanes leave the ring. The bound covers one full recharge rotation —
   every backlogged lane gains >= 1 deficit per pass, so a servable head
   is always reached within it. The slot is reserved now and the call
   dispatched from a fresh event, so the reply that released it
   finishes unwinding first. *)
and drain_drr rt proc d =
  let rec pick rounds =
    if rounds = 0 || Queue.is_empty d.d_ring then None
    else
      let lane = Queue.peek d.d_ring in
      if Queue.is_empty lane.l_q then begin
        ignore (Queue.pop d.d_ring);
        lane.l_linked <- false;
        pick (rounds - 1)
      end
      else if lane.l_deficit >= 1.0 then begin
        lane.l_deficit <- lane.l_deficit -. 1.0;
        let entry = Queue.pop lane.l_q in
        d.d_count <- d.d_count - 1;
        if Queue.is_empty lane.l_q then begin
          ignore (Queue.pop d.d_ring);
          lane.l_linked <- false
        end;
        Some (lane.l_tenant, entry)
      end
      else begin
        lane.l_deficit <- lane.l_deficit +. lane.l_weight;
        ignore (Queue.pop d.d_ring);
        Queue.add lane d.d_ring;
        pick (rounds - 1)
      end
  in
  match pick ((2 * Queue.length d.d_ring) + 1) with
  | None -> ()
  | Some (tn, (call, reply_to)) ->
      proc.inflight <- proc.inflight + 1;
      Option.iter Tenant.begin_call tn;
      ignore
        (Engine.schedule rt.sim ~delay:0.0 (fun () ->
             if proc.live then deliver_call rt proc ~queued:true ~tn call reply_to
             else begin
               proc.inflight <- proc.inflight - 1;
               Option.iter Tenant.end_call tn;
               reply_to (Error Err.No_such_object)
             end))

let note_caller rt proc ~src_host =
  let site = Network.site_of rt.net src_host in
  proc.caller_sites <-
    (match List.assoc_opt site proc.caller_sites with
    | Some n -> (site, n + 1) :: List.remove_assoc site proc.caller_sites
    | None -> (site, 1) :: proc.caller_sites)

(* Take a free slot directly — only when no lane is backlogged, so
   arrivals never overtake queued calls — or park in the caller's lane.
   A full tenant lane sheds [Quota_exceeded], the anonymous lane
   [Overloaded]. *)
let park_or_admit rt proc a tn call reply_to =
  let backlogged =
    match proc.drr with Some d -> not (Queue.is_empty d.d_ring) | None -> false
  in
  if proc.inflight < a.max_inflight && not backlogged then begin
    proc.inflight <- proc.inflight + 1;
    Option.iter Tenant.begin_call tn;
    deliver_call rt proc ~queued:false ~tn call reply_to
  end
  else
    let d = drr_of proc in
    let lane = lane_of d tn in
    if Queue.length lane.l_q < a.max_queue then begin
      Queue.add (call, reply_to) lane.l_q;
      d.d_count <- d.d_count + 1;
      link_lane d lane;
      (* A slot may be free when the caller's own lane was backlogged;
         grant it through the scheduler so lane order, not arrival
         order, decides. *)
      if proc.inflight < a.max_inflight then drain_queue rt proc
    end
    else
      match tn with
      | None -> shed_call rt proc ~meth:call.meth reply_to
      | Some tn ->
          quota_shed rt proc tn ~meth:call.meth
            ~retry_after:(overload_hint a ~queued:(Queue.length lane.l_q))
            reply_to

let admit_call rt proc call reply_to =
  match (proc.admission, rt.tenants) with
  | None, _ ->
      proc.inflight <- proc.inflight + 1;
      deliver_call rt proc ~queued:false ~tn:None call reply_to
  | Some a, None -> park_or_admit rt proc a None call reply_to
  | Some a, Some reg ->
      (* Tenanted admission charges the caller's budgets first: a failed
         charge is a shed attributed to that tenant. *)
      let tn = Tenant.of_env reg call.env in
      let nowt = Engine.now rt.sim in
      if not (Tenant.try_take tn ~now:nowt) then
        quota_shed rt proc tn ~meth:call.meth
          ~retry_after:(Tenant.retry_hint tn ~now:nowt)
          reply_to
      else if not (Tenant.inflight_ok tn) then
        quota_shed rt proc tn ~meth:call.meth ~retry_after:a.retry_after_hint
          reply_to
      else park_or_admit rt proc a (Some tn) call reply_to

(* ------------------------------------------------------------------ *)
(* Tenancy: registry plumbing and part-facing enforcement helpers.     *)

let set_tenants rt reg = rt.tenants <- reg
let tenants rt = rt.tenants

(* Parts that gate expensive methods by tenant budget (a class charging
   Create) use the same bucket, shed accounting and error shape as the
   admission layer. Free when no registry is armed. *)
let charge_quota rt proc ~meth ~env =
  match rt.tenants with
  | None -> Ok ()
  | Some reg ->
      let tn = Tenant.of_env reg env in
      let nowt = Engine.now rt.sim in
      if Tenant.try_take tn ~now:nowt then Ok ()
      else
        Error
          (quota_error rt proc tn ~meth
             ~retry_after:(Tenant.retry_hint tn ~now:nowt))

(* A policy rejection: count it against the caller's tenant and emit
   the tenant-tagged [Deny]. Returns the judged tenant's name. *)
let note_deny rt proc ~meth ~env =
  let tenant =
    match rt.tenants with
    | None -> Tenant.fallback_name
    | Some reg ->
        Tenant.name (Tenant.of_env reg env)
  in
  emit rt ~host:proc.host (Event.Deny { loid = proc.loid; meth; tenant });
  tenant

(* A binding-path policy rejection: [note_deny] plus the terminal error
   for the handler to reply with. *)
let deny_reply rt proc ~meth ~env ~reason =
  let tenant = note_deny rt proc ~meth ~env in
  Err.Denied { tenant; reason }

let send_reply rt ~host ~dst ~id reply =
  Network.send rt.net codec ~src:host ~dst (In_reply { id; reply })

let on_receive rt host = function
  | In_garbage _ -> ()
  | In_bounce { id; src_host; err } ->
      send_reply rt ~host ~dst:src_host ~id (Error err)
  | In_reply { id; reply } -> (
      match Hashtbl.find_opt rt.pending id with
      | None -> () (* late duplicate (racing replica) or post-timeout reply *)
      | Some p ->
          Hashtbl.remove rt.pending id;
          Option.iter Engine.cancel p.timer;
          emit rt ~host (Event.Reply { id; ok = Result.is_ok reply });
          if p.attempts > 1 then
            (* The call survived loss only thanks to retransmission;
               record how long recovery took end to end. *)
            Recorder.observe rt.obs ~component:"rt.recovery"
              (Engine.now rt.sim -. p.started);
          breaker_note rt ~at_host:host ~dst_host:p.dst_host
            (breaker_outcome reply);
          p.cont reply)
  | In_call { id; src_host; dst_loid; dst_slot; call; _ } -> (
      let reply_to r = send_reply rt ~host ~dst:src_host ~id r in
      let seen =
        match rt.dedup with
        | None -> Dedup.Absent
        | Some d -> Dedup.find d ~host:src_host ~id
      in
      match seen with
      | (Dedup.Running { loid; meth } | Dedup.Replied { loid; meth; _ }) as hit
        ->
          (* Exactly-once: this (caller, id) already started executing
             here — a retransmission or a network-injected duplicate.
             Replay the recorded reply (its original may have been
             lost) or, while the handler still runs, absorb the copy:
             the original execution's reply will reach the caller. The
             check runs before the slot and fence checks so a completed
             call replays even after its placement died or was
             superseded. *)
          rt.dedup_hits <- rt.dedup_hits + 1;
          emit rt ~host (Event.Dedup_hit { loid; id; meth });
          (match hit with Dedup.Replied { reply; _ } -> reply_to reply | _ -> ())
      | Dedup.Absent -> (
          (* The zero LOID is a wildcard: calls routed purely by Object
             Address (e.g. an object talking to its Binding Agent, whose
             address — not LOID — is in its persistent state, §3.6). *)
          match slot_get rt dst_slot with
          | Some proc
            when proc.live && proc.host = host
                 && (Loid.is_wildcard dst_loid || Loid.equal proc.loid dst_loid) ->
              let cur = proc.place.current in
              if proc.epoch < cur then begin
                (* A superseded incarnation must never answer: fence it
                   so the caller's rebind machinery finds the current
                   one. *)
                emit rt ~host
                  (Event.Fence
                     { loid = proc.loid; epoch = proc.epoch; current = cur });
                reply_to (Error Err.Stale_epoch)
              end
              else begin
                note_caller rt proc ~src_host;
                let reply_to =
                  match rt.dedup with
                  | None -> reply_to
                  | Some d ->
                      (* Mark the call executing before admission so a
                         duplicate arriving while it is parked in an
                         admission queue cannot be enqueued a second
                         time. Retryable sheds un-mark: the caller
                         re-sends the same id expecting
                         re-evaluation. *)
                      let serial =
                        Dedup.add d ~host:src_host ~id ~loid:proc.loid
                          ~meth:call.meth
                      in
                      fun r ->
                        (match r with
                        | Error e when Err.is_retryable e ->
                            Dedup.remove d ~host:src_host ~id
                        | _ -> Dedup.record d ~host:src_host ~id ~serial r);
                        reply_to r
                in
                admit_call rt proc call reply_to
              end
          | Some _ | None -> reply_to (Error Err.No_such_object)))

let attach_host rt host =
  if not (Hashtbl.mem rt.attached host) then begin
    Hashtbl.add rt.attached host ();
    Network.set_receiver rt.net host (fun ~src:_ m -> on_receive rt host m)
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let spawn rt ~host ~loid ~kind ?cache_capacity ?binding_agent ?admission
    ~handler () =
  attach_host rt host;
  (* [config.admission] is the default budget for application objects
     only. Infrastructure processes (classes, magistrates, agents,
     hosts) serve each other's bring-up and binding traffic, where a
     budget can invert RPC dependency order; they degrade by policy
     (load_factor / shed_reply) and are budgeted only when a caller
     opts them in via [?admission] or [set_admission]. *)
  let admission =
    match admission with
    | Some a -> a
    | None -> if String.equal kind "app" then rt.config.admission else None
  in
  (match cache_capacity with
  | Some c when c < 0 -> invalid_arg "Runtime.spawn: negative cache_capacity"
  | _ -> ());
  let place = place_of rt loid in
  let slot = rt.next_slot in
  rt.next_slot <- rt.next_slot + 1;
  (* Replicas share a LOID but not a counter: the placement's slot
     disambiguates, so per-process load stays measurable. Slots are
     never reused, so no two counters share a name. *)
  let counter =
    Counter.Registry.make rt.registry ~group:kind
      ~name:(lazy (Printf.sprintf "%s@%d.%d" (Loid.to_string loid) host slot))
  in
  let proc =
    {
      loid;
      host;
      slot;
      kind;
      place;
      epoch = place.current;
      cache_capacity;
      cache = None;
      counter;
      drr = None;
      admission;
      inflight = 0;
      live = true;
      handler;
      ba = binding_agent;
      last_delivery = Engine.now rt.sim;
      caller_sites = [];
    }
  in
  slot_set rt slot proc;
  place.procs <- proc :: place.procs;
  emit rt ~host (Event.Activate { loid });
  proc

(* Fail in-flight calls headed to a dead host promptly instead of
   letting each burn its full attempt/retry budget. Continuations run
   from a zero-delay event so callers never re-enter the fault
   injector's caller synchronously. *)
let fail_inflight_to rt host =
  let doomed =
    Hashtbl.fold
      (fun id p acc -> if p.dst_host = host then (id, p) :: acc else acc)
      rt.pending []
  in
  List.iter
    (fun (id, p) ->
      Hashtbl.remove rt.pending id;
      Option.iter Engine.cancel p.timer;
      emit rt ~host (Event.Cancel { id });
      breaker_note rt ~at_host:host ~dst_host:host Breaker.Transport_failure;
      ignore
        (Engine.schedule rt.sim ~delay:0.0 (fun () ->
             p.cont (Error (Err.Unreachable "destination host crashed")))))
    doomed

let crash_host rt host =
  Network.set_host_up rt.net host false;
  List.iter (kill rt) (procs_on_host rt host);
  fail_inflight_to rt host

(* A power failure, unlike [crash_host], leaves the process table
   intact: when the host reboots its placements are still there —
   zombies, if the objects were reactivated elsewhere in the meantime —
   which is exactly what the epoch fence and the reboot reaper exist
   to neutralise. *)
let power_fail rt host =
  Network.set_host_up rt.net host false;
  fail_inflight_to rt host

let find_proc rt loid =
  match placements rt loid with [] -> None | p :: _ -> Some p

let is_live p = p.live
let last_delivery p = p.last_delivery
let proc_loid p = p.loid
let proc_host p = p.host
let proc_kind p = p.kind
let proc_epoch p = p.epoch

(* Carry a surviving placement across an incarnation bump: the replica
   repair protocol bumps the LOID's epoch so the dead replica's stale
   addresses fence, and the survivors — still part of the replica set —
   must move to the new incarnation or the fence would eat them too. *)
let refresh_epoch rt p =
  p.epoch <- current_epoch rt p.loid;
  note_host_change rt p.host

let set_handler p h = p.handler <- h
let set_binding_agent p ba = p.ba <- ba
let binding_agent p = p.ba
let set_admission p a = p.admission <- a
let admission_of p = p.admission
let inflight p = p.inflight
let queued_calls p = queue_depth p

(* 0 = idle or unbudgeted, 1 = the next call is shed. Parts use this to
   degrade by policy before the hard limit bites (Class_part sheds
   creates past 0.5 while lookups ride to the end). *)
let load_factor p =
  match p.admission with
  | None -> 0.0
  | Some a ->
      float_of_int (p.inflight + queue_depth p)
      /. float_of_int (max 1 (a.max_inflight + a.max_queue))

(* ------------------------------------------------------------------ *)
(* Addresses.                                                          *)

let element_of p = Address.Sim { host = p.host; slot = p.slot }
let address_of p = Address.singleton (element_of p)

let mint_binding rt ~epoch ~loid address =
  let expires = Option.map (fun ttl -> now rt +. ttl) rt.config.binding_ttl in
  Binding.make ?expires ~epoch ~loid ~address ()

let binding_of rt p = mint_binding rt ~epoch:p.epoch ~loid:p.loid (address_of p)

(* Most processes never call out: the many objects a placement burst
   activates only answer, so their caches are never built. *)
let cache_of p =
  match p.cache with
  | Some c -> c
  | None ->
      let c = Cache.create ?capacity:p.cache_capacity () in
      p.cache <- Some c;
      c

let seed_binding p b = Cache.add (cache_of p) ~now:0.0 b

(* ------------------------------------------------------------------ *)
(* Invocation.                                                         *)

(* Send one call to one element and register the continuation. Default-
   budget calls are governed by the configured retry policy: the call is
   retransmitted (same id — at-least-once) under exponentially growing,
   jittered attempt windows until a reply lands, the attempt budget runs
   out, or the overall deadline passes. An explicit [timeout] is a
   caller-managed deadline and selects a single attempt: probes and
   deferred-reply methods (barrier Arrive) depend on exactly one
   transmission per logical call.

   Returns a cancel thunk that reaps the pending entry without running
   the continuation — racing callers use it to retire losers. Non-Sim
   elements cannot be routed by the simulated network; they fail
   asynchronously so callers see a uniform interface. *)
let send_one ctx ?timeout ~dst_loid ~element c k =
  let rt = ctx.rt in
  match element with
  | Address.Sim { host = dst_host; slot = dst_slot } ->
      let id = rt.next_call in
      rt.next_call <- rt.next_call + 1;
      let policy =
        match timeout with Some _ -> Retry.none | None -> rt.config.retry
      in
      let overall = Option.value ~default:rt.config.call_timeout timeout in
      let started = now rt in
      let deadline = started +. overall in
      let msg =
        In_call
          {
            id;
            src_loid = ctx.self.loid;
            src_host = ctx.self.host;
            dst_loid;
            dst_slot;
            call = c;
          }
      in
      (* [cont] must be installed before [handle_reply] exists (the
         closures are mutually recursive through the pending entry), so
         route it through a forward reference. *)
      let on_reply = ref k in
      let p =
        {
          cont = (fun r -> !on_reply r);
          dst_host;
          timer = None;
          attempts = 0;
          started;
        }
      in
      Hashtbl.replace rt.pending id p;
      let backoffs = ref 0 in
      let fail_async e =
        ignore (Engine.schedule rt.sim ~delay:0.0 (fun () -> k (Error e)))
      in
      let give_up () =
        Hashtbl.remove rt.pending id;
        emit rt ~host:ctx.self.host (Event.Timeout { id });
        if policy.Retry.max_attempts > 1 then
          emit rt ~host:ctx.self.host
            (Event.Giveup { id; attempts = p.attempts });
        breaker_note rt ~at_host:ctx.self.host ~dst_host
          Breaker.Transport_failure;
        k (Error Err.Timeout)
      in
      let rec transmit () =
        let decision =
          match rt.breakers with
          | None -> Breaker.Allow
          | Some b -> Breaker.before_send b ~now:(now rt) dst_host
        in
        match decision with
        | Breaker.Reject { error; retry_after } ->
            (* Fail fast: no message, no attempt timer. If the call's
               budget can absorb the wait, park it and try again when
               the circuit may admit a probe. *)
            incr backoffs;
            let wait =
              Retry.backoff_window policy
                ~attempt:(p.attempts + !backoffs) ~retry_after ~prng:rt.prng
            in
            if deadline -. now rt > wait +. 1e-9 then
              p.timer <-
                Some
                  (Engine.schedule rt.sim ~delay:wait (fun () ->
                       p.timer <- None;
                       if Hashtbl.mem rt.pending id then transmit ()))
            else begin
              Hashtbl.remove rt.pending id;
              fail_async error
            end
        | Breaker.Allow | Breaker.Probe ->
            (if decision = Breaker.Probe then
               emit rt ~host:ctx.self.host (Event.Breaker_probe { host = dst_host }));
            p.attempts <- p.attempts + 1;
            if p.attempts > 1 then
              emit rt ~host:ctx.self.host
                (Event.Retry { id; attempt = p.attempts });
            emit rt ~host:ctx.self.host
              (Event.Call { id; src = ctx.self.loid; dst = dst_loid; meth = c.meth });
            let window =
              Float.min
                (Retry.attempt_window policy ~attempt:p.attempts ~prng:rt.prng)
                (deadline -. now rt)
            in
            p.timer <- Some (Engine.schedule rt.sim ~delay:window on_expire);
            Network.send rt.net codec ~src:ctx.self.host ~dst:dst_host msg
      and on_expire () =
        if Hashtbl.mem rt.pending id then begin
          p.timer <- None;
          if p.attempts < policy.Retry.max_attempts
             && deadline -. now rt > 1e-9
          then transmit ()
          else give_up ()
        end
      and handle_reply (r : reply) =
        (* Runs after the pending entry is removed (reply delivered). *)
        match r with
        | Error
            ( Err.Overloaded { retry_after }
            | Err.Txn_locked { retry_after; _ }
            | Err.Quota_exceeded { retry_after; _ } )
          when p.attempts < policy.Retry.max_attempts ->
            (* Backpressure-aware backoff: the destination shed us and
               said when to come back; honour the hint (and the policy's
               growing window) inside the remaining call budget instead
               of surfacing the shed. A prepare-lock rejection sheds the
               same way — the lock clears when the holding transaction
               resolves, typically well within the hinted window.
               Re-register under the same id — this is still the same
               logical call. *)
            let wait =
              Retry.backoff_window policy ~attempt:(p.attempts + 1)
                ~retry_after ~prng:rt.prng
            in
            if deadline -. now rt > wait +. 1e-9 then begin
              Hashtbl.replace rt.pending id p;
              p.timer <-
                Some
                  (Engine.schedule rt.sim ~delay:wait (fun () ->
                       p.timer <- None;
                       if Hashtbl.mem rt.pending id then transmit ()))
            end
            else k r
        | r -> k r
      in
      on_reply := handle_reply;
      transmit ();
      fun () ->
        if Hashtbl.mem rt.pending id then begin
          Hashtbl.remove rt.pending id;
          Option.iter Engine.cancel p.timer;
          emit rt ~host:ctx.self.host (Event.Cancel { id })
        end
  | Address.Ip _ | Address.Ip_node _ | Address.Raw _ ->
      ignore
        (Engine.schedule rt.sim ~delay:0.0 (fun () ->
             k (Error (Err.Unreachable "non-simulated address element"))));
      fun () -> ()

(* Race: send to every element at once; first reply that is not a
   delivery failure wins and retires the losers — their timers are
   cancelled and their pending entries reaped, so no spurious Timeout
   fires after the exchange is decided. If everything fails, report the
   last failure. *)
let race ctx ?timeout ~dst_loid ~elements c k =
  match elements with
  | [] -> k (Error (Err.Unreachable "empty target list"))
  | _ ->
      let n = List.length elements in
      if n > 1 then
        emit ctx.rt ~host:ctx.self.host
          (Event.Replica_fanout { target = dst_loid; width = n });
      let failures = ref 0 in
      let done_ = ref false in
      let cancels = ref [] in
      let on_reply r =
        if not !done_ then
          match r with
          | Error e when Err.is_delivery_failure e ->
              incr failures;
              if !failures = n then begin
                done_ := true;
                k (Error e)
              end
          | r ->
              done_ := true;
              (* The winner's entry is already gone; cancelling it is a
                 no-op, so retire everything still pending. *)
              List.iter (fun cancel -> cancel ()) !cancels;
              k r
      in
      (* send_one never runs the continuation synchronously (delivery and
         deadlines are both scheduled events), so the losers' cancel
         thunks are all collected before any reply can fire. *)
      cancels :=
        List.map
          (fun el -> send_one ctx ?timeout ~dst_loid ~element:el c on_reply)
          elements

(* Ordered failover: walk the list, advancing only on delivery failure. *)
let rec failover ctx ?timeout ~dst_loid ~elements c k =
  match elements with
  | [] -> k (Error (Err.Unreachable "all address elements failed"))
  | el :: rest ->
      let (_cancel : unit -> unit) =
        send_one ctx ?timeout ~dst_loid ~element:el c (fun r ->
            match r with
            | Error e when Err.is_delivery_failure e && rest <> [] ->
                failover ctx ?timeout ~dst_loid ~elements:rest c k
            | r -> k r)
      in
      ()

let invoke_address ctx ?timeout ~address ~dst ~meth ~args ~env k =
  let c = { meth; args; env } in
  let elements = Address.targets address ctx.rt.prng in
  match Address.semantic address with
  | Address.All | Address.First_k _ | Address.K_random _ ->
      race ctx ?timeout ~dst_loid:dst ~elements c k
  | Address.Any_random | Address.Ordered_failover | Address.Custom _ ->
      failover ctx ?timeout ~dst_loid:dst ~elements c k

let invoke_binding ctx ?timeout ~binding ~meth ~args ~env k =
  invoke_address ctx ?timeout ~address:(Binding.address binding)
    ~dst:(Binding.loid binding) ~meth ~args ~env k

(* Ask the caller's Binding Agent for a binding. A [Refresh] carries
   the binding we believe is bad, making the Agent refresh rather than
   serve its cache (GetBinding(binding) form of §3.6). *)
let resolve_via_agent ctx ?timeout ~env req k =
  match ctx.self.ba with
  | None -> k (Error (Err.Unreachable "object has no binding agent"))
  | Some ba_address ->
      let rt = ctx.rt in
      let stale = match req with Binding.Refresh _ -> true | Lookup _ -> false in
      emit rt ~host:ctx.self.host
        (Event.Resolve
           { owner = ctx.self.loid; target = Binding.request_loid req; stale });
      let t0 = now rt in
      let k r =
        Recorder.observe rt.obs ~component:"rt.resolve" (now rt -. t0);
        k r
      in
      (* The Binding Agent's own LOID is unknown here; addressing is by
         Object Address, which is what the persistent state stores. The
         dst LOID in the message is a wildcard the agent accepts. *)
      invoke_address ctx ?timeout ~address:ba_address ~dst:Loid.wildcard
        ~meth:"GetBinding" ~args:[ Binding.request_to_value req ] ~env
        (fun r ->
          match r with
          | Error e -> k (Error e)
          | Ok v -> (
              match Binding.of_value v with
              | Ok b -> k (Ok b)
              | Error msg -> k (Error (Err.Internal ("bad binding from agent: " ^ msg)))))

let invoke ctx ?timeout ?max_rebinds ~dst ~meth ~args ?env k =
  let rt = ctx.rt in
  let env = match env with Some e -> e | None -> Env.of_self ctx.self.loid in
  let rebind_budget = Option.value ~default:rt.config.max_rebinds max_rebinds in
  let c = { meth; args; env } in
  let self_loid = ctx.self.loid in
  let self_host = ctx.self.host in
  let cache = cache_of ctx.self in
  let install fresh =
    Cache.add cache ~now:(now rt) fresh;
    emit rt ~host:self_host
      (Event.Binding_install { owner = self_loid; target = dst })
  in
  (* One delivery attempt against a binding; on a delivery failure,
     refresh through the Binding Agent and retry (§4.1.4). *)
  let rec attempt binding rebinds_left =
    invoke_binding ctx ?timeout ~binding ~meth:c.meth ~args:c.args ~env (fun r ->
        match r with
        | Error e when Err.is_delivery_failure e ->
            Cache.invalidate_exact cache binding;
            if rebinds_left <= 0 then k (Error e)
            else begin
              emit rt ~host:self_host
                (Event.Rebind
                   {
                     owner = self_loid;
                     target = dst;
                     attempt = rebind_budget - rebinds_left + 1;
                   });
              resolve_via_agent ctx ?timeout ~env (Binding.Refresh binding)
                (fun rb ->
                  match rb with
                  | Error e' -> k (Error e')
                  | Ok fresh ->
                      install fresh;
                      attempt fresh (rebinds_left - 1))
            end
        | r -> k r)
  in
  match Cache.find cache ~now:(now rt) dst with
  | Some binding ->
      emit rt ~host:self_host
        (Event.Cache_hit { owner = self_loid; target = dst });
      attempt binding rebind_budget
  | None ->
      emit rt ~host:self_host
        (Event.Cache_miss { owner = self_loid; target = dst });
      resolve_via_agent ctx ?timeout ~env (Binding.Lookup dst) (fun rb ->
          match rb with
          | Error e -> k (Error e)
          | Ok binding ->
              install binding;
              attempt binding rebind_budget)

(* ------------------------------------------------------------------ *)
(* Accounting.                                                         *)

let total_calls_delivered rt = rt.delivered
let total_sheds rt = rt.sheds
let dedup_hits rt = rt.dedup_hits
let requests_of p = Counter.value p.counter
let caller_sites p = p.caller_sites

let breaker_phase rt host =
  Option.map (fun b -> Breaker.phase_name b host) rt.breakers
