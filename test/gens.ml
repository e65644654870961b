(* QCheck generators shared by the suites: every [Value.t] shape, every
   [Err.t] constructor, LOIDs with and without public keys, every
   address element and semantic, bindings, and every trace
   [Event.kind] constructor. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Err = Legion_rt.Err

let loid : Loid.t QCheck.Gen.t =
  let open QCheck.Gen in
  let+ class_id = int64
  and+ class_specific = int64
  and+ public_key = oneof [ return ""; string_size (1 -- 24) ] in
  Loid.make ~public_key ~class_id ~class_specific ()

let element : Address.element QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun h p -> Address.Ip { host = h; port = p land 0xFFFF }) int32 int;
      map3
        (fun h p n ->
          Address.Ip_node { host = h; port = p land 0xFFFF; node = n land 0xFF })
        int32 int int;
      map2
        (fun h s -> Address.Sim { host = h land 0xFFFF; slot = s land 0xFFFF })
        int int;
      map2
        (fun t payload -> Address.Raw { addr_type = t; payload })
        int32 (string_size (0 -- 8));
    ]

let semantic : Address.semantic QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      return Address.All;
      return Address.Any_random;
      map (fun k -> Address.First_k (abs k mod 5)) int;
      map (fun k -> Address.K_random (abs k mod 5)) int;
      return Address.Ordered_failover;
      map (fun s -> Address.Custom s) (string_size (1 -- 6));
    ]

let address : Address.t QCheck.Gen.t =
  QCheck.Gen.map2
    (fun els semantic -> Address.make ~semantic els)
    (QCheck.Gen.list_size QCheck.Gen.(1 -- 5) element)
    semantic

(* Expiry [None] or finite, epoch 0 (the default) or any other. *)
let binding : Binding.t QCheck.Gen.t =
  let open QCheck.Gen in
  let+ loid = loid
  and+ address = address
  and+ expires = opt (float_range 0.0 100.0)
  and+ epoch = oneof [ return 0; small_nat; int ] in
  Binding.make ?expires ~epoch ~loid ~address ()

(* A sized generator of arbitrary values, the typed naming values among
   its leaves. *)
let value : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Value.Unit;
                map (fun b -> Value.Bool b) bool;
                map (fun i -> Value.Int i) int;
                map (fun i -> Value.I64 i) int64;
                (* NaN breaks equality; generate finite floats. *)
                map (fun f -> Value.Float f) (float_bound_exclusive 1e12);
                map (fun s -> Value.Str s) (string_size (0 -- 12));
                map (fun s -> Value.Blob s) (string_size (0 -- 12));
                map Loid.to_value loid;
                map Address.to_value address;
                map Binding.to_value binding;
              ]
          in
          if n <= 1 then scalar
          else
            frequency
              [
                (3, scalar);
                (1, map (fun vs -> Value.List vs) (list_size (0 -- 4) (self (n / 2))));
                ( 1,
                  map
                    (fun vs ->
                      Value.Record
                        (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
                    (list_size (0 -- 4) (self (n / 2))) );
              ])
        (min n 12))

(* Every constructor of the taxonomy, listed by hand: a new variant
   must be added here too. *)
let err : Err.t QCheck.Gen.t =
  let open QCheck.Gen in
  let s = string_size (0 -- 16) in
  (* retry hints travel as Float; keep them finite and exact. *)
  let ra = map (fun i -> float_of_int i /. 8.0) (int_bound 800) in
  oneof
    [
      return Err.No_such_object;
      map (fun d -> Err.No_such_method d) s;
      map (fun d -> Err.Refused d) s;
      map (fun d -> Err.Bad_args d) s;
      map (fun d -> Err.Not_bound d) s;
      return Err.Timeout;
      map (fun d -> Err.Unreachable d) s;
      return Err.Stale_epoch;
      map (fun r -> Err.Overloaded { retry_after = r }) ra;
      map3
        (fun h n e -> Err.No_quorum { have = h; need = n; epoch = e })
        (int_bound 9) (int_bound 9) (int_bound 99);
      map2
        (fun h r -> Err.Txn_locked { holder = h; retry_after = r })
        s ra;
      map (fun x -> Err.Txn_aborted { txn = x }) s;
      map2
        (fun t r -> Err.Quota_exceeded { tenant = t; retry_after = r })
        s ra;
      map2 (fun t d -> Err.Denied { tenant = t; reason = d }) s s;
      map (fun d -> Err.Corrupt d) s;
      map (fun d -> Err.Internal d) s;
    ]

module Event = Legion_obs.Event

(* One generator per [Event.kind] constructor, in declaration order: a
   new constructor must be added here too. Ints reach the negative and
   the large, every [tier] and [drop_reason] occurs, and an optional
   tenant is [None], [Some ""] or some other string. *)
let event_kinds : Event.kind QCheck.Gen.t list =
  let open QCheck.Gen in
  let n = oneof [ small_signed_int; int; oneofl [ 0; -1; max_int; min_int ] ] in
  let s = oneof [ return ""; string_size (0 -- 8) ] in
  let l = loid in
  let tenant = oneof [ return None; return (Some ""); map Option.some s ] in
  let tier = oneofl Event.[ Intra_host; Intra_site; Inter_site ] in
  let reason =
    oneofl
      Event.[ Src_down; Dst_down; Partitioned; Random_loss; No_receiver; Corrupted ]
  in
  let extra = float_bound_inclusive 10.0 in
  Event.
    [
      map (fun (src, dst, bytes, tier) -> Send { src; dst; bytes; tier })
        (quad n n n tier);
      map2 (fun src dst -> Deliver { src; dst }) n n;
      map3 (fun src dst reason -> Drop { src; dst; reason }) n n reason;
      map2 (fun src dst -> Duplicate { src; dst }) n n;
      map3 (fun src dst extra -> Reorder { src; dst; extra }) n n extra;
      map3 (fun src dst mutations -> Corrupt_inject { src; dst; mutations }) n n n;
      map3 (fun loid id meth -> Dedup_hit { loid; id; meth }) l n s;
      map (fun (id, src, dst, meth) -> Call { id; src; dst; meth }) (quad n l l s);
      map2 (fun id ok -> Reply { id; ok }) n bool;
      map (fun id -> Timeout { id }) n;
      map2 (fun id attempt -> Retry { id; attempt }) n n;
      map2 (fun id attempts -> Giveup { id; attempts }) n n;
      map (fun id -> Cancel { id }) n;
      map2 (fun owner target -> Cache_hit { owner; target }) l l;
      map2 (fun owner target -> Cache_miss { owner; target }) l l;
      map3 (fun owner target stale -> Resolve { owner; target; stale }) l l bool;
      map2 (fun owner target -> Binding_install { owner; target }) l l;
      map3 (fun owner target attempt -> Rebind { owner; target; attempt }) l l n;
      map (fun loid -> Activate { loid }) l;
      map (fun loid -> Deactivate { loid }) l;
      map2 (fun loid dst -> Migrate { loid; dst }) l l;
      map2 (fun target width -> Replica_fanout { target; width }) l n;
      map (fun loid -> Checkpoint { loid }) l;
      map2 (fun host_obj missed -> Suspect { host_obj; missed }) l n;
      map2 (fun host_obj objects -> Confirm_dead { host_obj; objects }) l n;
      map (fun loid -> Reactivate { loid }) l;
      map3 (fun loid epoch current -> Fence { loid; epoch; current }) l n n;
      map (fun (loid, meth, queued, tenant) -> Admit { loid; meth; queued; tenant })
        (quad l s bool tenant);
      map (fun (loid, meth, queue, tenant) -> Shed { loid; meth; queue; tenant })
        (quad l s n tenant);
      map3 (fun loid meth tenant -> Deny { loid; meth; tenant }) l s s;
      map2 (fun host failures -> Breaker_open { host; failures }) n n;
      map (fun host -> Breaker_probe { host }) n;
      map (fun host -> Breaker_close { host }) n;
      map2 (fun owner target -> Stale_serve { owner; target }) l l;
      map3 (fun loid host remaining -> Replica_lost { loid; host; remaining }) l n n;
      map3 (fun loid host epoch -> Replica_repair { loid; host; epoch }) l n n;
      map3 (fun loid have need -> No_quorum { loid; have; need }) l n n;
      map3 (fun loid divergent updated -> Reconcile { loid; divergent; updated }) l n n;
      map2 (fun cls clone -> Clone { cls; clone }) l l;
      map2 (fun cls clone -> Merge { cls; clone }) l l;
      map3 (fun magistrate dst objects -> Split { magistrate; dst; objects }) l l n;
      map2 (fun agent host_obj -> Probe_fail { agent; host_obj }) l l;
      map2 (fun txn participant -> Prepare { txn; participant }) s l;
      map2 (fun txn participants -> Txn_commit { txn; participants }) s n;
      map2 (fun txn reason -> Txn_abort { txn; reason }) s s;
      map2 (fun txn participant -> Compensate { txn; participant }) s l;
      map2 (fun txn decision -> Resume { txn; decision }) s s;
    ]

(* A stamped event. [host] and [site] are absent, 0, small, or any int —
   the last two past what a packed slot holds. *)
let event : Event.t QCheck.Gen.t =
  let open QCheck.Gen in
  let where =
    oneof [ return None; return (Some 0); map Option.some (0 -- 9); map Option.some int ]
  in
  let+ time = float_bound_inclusive 1e6
  and+ host = where
  and+ site = where
  and+ kind = oneof event_kinds in
  { Event.time; host; site; kind }
