(* QCheck generators shared by the suites: every [Value.t] shape, every
   [Err.t] constructor, and LOIDs with and without public keys. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Err = Legion_rt.Err

(* A sized generator of arbitrary values. *)
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

let loid : Loid.t QCheck.Gen.t =
  let open QCheck.Gen in
  let+ class_id = int64
  and+ class_specific = int64
  and+ public_key = oneof [ return ""; string_size (1 -- 24) ] in
  Loid.make ~public_key ~class_id ~class_specific ()
