(* Tests for LOIDs, Object Addresses, Bindings and the binding cache. *)

module Value = Legion_wire.Value
module Codec = Legion_wire.Codec
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Cache = Legion_naming.Cache
module Prng = Legion_util.Prng

let loid_t = Alcotest.testable Loid.pp Loid.equal
let addr_t = Alcotest.testable Address.pp Address.equal
let binding_t = Alcotest.testable Binding.pp Binding.equal

(* --- LOIDs (§3.2) --- *)

let test_loid_fields () =
  let l = Loid.make ~public_key:"pk" ~class_id:7L ~class_specific:42L () in
  Alcotest.(check int64) "cid" 7L (Loid.class_id l);
  Alcotest.(check int64) "spec" 42L (Loid.class_specific l);
  Alcotest.(check string) "key" "pk" (Loid.public_key l);
  Alcotest.(check bool) "not a class" false (Loid.is_class l)

let test_loid_responsible_class () =
  let l = Loid.make ~public_key:"pk" ~class_id:7L ~class_specific:42L () in
  let c = Loid.responsible_class l in
  Alcotest.(check int64) "same cid" 7L (Loid.class_id c);
  Alcotest.(check int64) "spec zeroed" 0L (Loid.class_specific c);
  Alcotest.(check string) "no key" "" (Loid.public_key c);
  Alcotest.(check bool) "is a class" true (Loid.is_class c);
  (* Idempotent on key-less classes (§3.7 convention). *)
  Alcotest.check loid_t "idempotent" c (Loid.responsible_class c)

let test_loid_equality_covers_key () =
  let a = Loid.make ~public_key:"x" ~class_id:1L ~class_specific:1L () in
  let b = Loid.make ~public_key:"y" ~class_id:1L ~class_specific:1L () in
  Alcotest.(check bool) "keys distinguish" false (Loid.equal a b);
  Alcotest.(check bool) "compare nonzero" true (Loid.compare a b <> 0)

let test_loid_table () =
  let tbl = Loid.Table.create () in
  let l1 = Loid.make ~class_id:1L ~class_specific:1L () in
  let l2 = Loid.make ~class_id:1L ~class_specific:2L () in
  Loid.Table.set tbl l1 "one";
  Loid.Table.set tbl l2 "two";
  Alcotest.(check (option string)) "find" (Some "one") (Loid.Table.find tbl l1);
  Loid.Table.set tbl l1 "uno";
  Alcotest.(check (option string)) "replace" (Some "uno") (Loid.Table.find tbl l1);
  Alcotest.(check int) "length" 2 (Loid.Table.length tbl);
  Loid.Table.remove tbl l1;
  Alcotest.(check bool) "removed" false (Loid.Table.mem tbl l1)

let arbitrary_loid = QCheck.make ~print:Loid.to_string Gens.loid

(* A naming value crosses the network typed and its record is built
   only to be read as fields or bytes. Each type must come back from
   its typed value as itself, and from the bytes of its record (what a
   sealed frame or a store write carries) as the same value, and its
   formula size must be the length of those bytes. *)
let typed_roundtrip (type a) ~name ~count arbitrary ~(to_value : a -> Value.t)
    ~(of_value : Value.t -> (a, string) result) ~(equal : a -> a -> bool) =
  QCheck.Test.make ~name ~count arbitrary (fun x ->
      let v = to_value x in
      let bytes = Codec.encode v in
      let back = function Ok y -> equal x y | Error _ -> false in
      back (of_value v)
      && Value.size_bytes v = String.length bytes
      && back (Result.bind (Codec.decode bytes) of_value))

let loid_roundtrip =
  typed_roundtrip ~name:"loid wire roundtrip" ~count:300 arbitrary_loid
    ~to_value:Loid.to_value ~of_value:Loid.of_value ~equal:Loid.equal

(* [to_string] once went through [Format.asprintf]; the cheaper form
   must print the same bytes, since store keys, transaction ids, counter
   names, trace digests and the sorted history listing are built from
   it. [hash] only places a LOID in a [Loid.Table] or [Loid.Lru], and
   nothing reads an order from that placement ([Loid.Lru] folds in touch
   order and [Persistent.history_loids] sorts), so its value is free to
   change; equal LOIDs must hash equal however they were rebuilt. *)
let loid_hash_and_print_unchanged =
  QCheck.Test.make ~name:"loid print matches the old formula, equal loids hash equal"
    ~count:500 arbitrary_loid (fun l ->
      let cid = Loid.class_id l
      and spec = Loid.class_specific l
      and key = Loid.public_key l in
      let old_print =
        if String.length key = 0 then Format.asprintf "L%Lx.%Lx" cid spec
        else Format.asprintf "L%Lx.%Lx+key" cid spec
      in
      let hashes_equal = function
        | Ok l' -> Loid.equal l l' && Loid.hash l' = Loid.hash l
        | Error _ -> false
      in
      let v = Loid.to_value l in
      Loid.hash (Loid.make ~public_key:key ~class_id:cid ~class_specific:spec ())
      = Loid.hash l
      && hashes_equal (Loid.of_value v)
      && hashes_equal (Result.bind (Codec.decode (Codec.encode v)) Loid.of_value)
      && String.equal (Loid.to_string l) old_print
      && String.equal (Format.asprintf "%a" Loid.pp l) old_print)

(* The LOIDs a cold fill names: the instances of one class and the
   classes themselves. Masked to 13 bits, as a table of 8,192 buckets
   masks them, they must spread about as a random function would
   (about 3,500 distinct values for 4,564 keys). *)
let test_loid_hash_spread () =
  let seen = Hashtbl.create 8192 in
  let note l = Hashtbl.replace seen (Loid.hash l land 8191) () in
  for spec = 1 to 4500 do
    note (Loid.make ~class_id:1L ~class_specific:(Int64.of_int spec) ())
  done;
  for cid = 1 to 64 do
    note (Loid.make ~class_id:(Int64.of_int cid) ~class_specific:0L ())
  done;
  let distinct = Hashtbl.length seen in
  if distinct < 3400 then
    Alcotest.failf "4564 loids fall into %d of 8192 buckets, want >= 3400" distinct

(* --- Addresses (§3.4) --- *)

let arbitrary_address =
  QCheck.make ~print:(Format.asprintf "%a" Address.pp) Gens.address

let address_roundtrip =
  typed_roundtrip ~name:"address wire roundtrip" ~count:300 arbitrary_address
    ~to_value:Address.to_value ~of_value:Address.of_value ~equal:Address.equal

let test_address_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Address.make: empty element list")
    (fun () -> ignore (Address.make []))

let test_address_targets () =
  let e1 = Address.Sim { host = 1; slot = 1 } in
  let e2 = Address.Sim { host = 2; slot = 2 } in
  let e3 = Address.Sim { host = 3; slot = 3 } in
  let prng = Prng.create ~seed:1L in
  let all = Address.make ~semantic:Address.All [ e1; e2; e3 ] in
  Alcotest.(check int) "all" 3 (List.length (Address.targets all prng));
  let k2 = Address.make ~semantic:(Address.First_k 2) [ e1; e2; e3 ] in
  Alcotest.(check int) "first 2" 2 (List.length (Address.targets k2 prng));
  let anyr = Address.make ~semantic:Address.Any_random [ e1; e2; e3 ] in
  for _ = 1 to 20 do
    match Address.targets anyr prng with
    | [ e ] ->
        Alcotest.(check bool) "member" true (List.mem e [ e1; e2; e3 ])
    | _ -> Alcotest.fail "any_random must pick exactly one"
  done;
  let fo = Address.make ~semantic:Address.Ordered_failover [ e1; e2; e3 ] in
  Alcotest.(check bool) "failover preserves order" true
    (Address.targets fo prng = [ e1; e2; e3 ]);
  let kr = Address.make ~semantic:(Address.K_random 2) [ e1; e2; e3 ] in
  for _ = 1 to 20 do
    let ts = Address.targets kr prng in
    Alcotest.(check int) "k random picks k" 2 (List.length ts);
    Alcotest.(check int) "k random distinct" 2
      (List.length (List.sort_uniq compare ts));
    List.iter
      (fun e -> Alcotest.(check bool) "member" true (List.mem e [ e1; e2; e3 ]))
      ts
  done;
  (* Oversized k clamps to N. *)
  let kr9 = Address.make ~semantic:(Address.K_random 9) [ e1; e2 ] in
  Alcotest.(check int) "k clamps" 2 (List.length (Address.targets kr9 prng))

let test_address_types () =
  Alcotest.(check int32) "ip" 1l (Address.addr_type (Address.Ip { host = 0l; port = 0 }));
  Alcotest.(check int32) "sim" 3l
    (Address.addr_type (Address.Sim { host = 0; slot = 0 }));
  Alcotest.(check (option int)) "sim host" (Some 4)
    (Address.sim_host (Address.Sim { host = 4; slot = 0 }));
  Alcotest.(check (option int)) "ip no sim host" None
    (Address.sim_host (Address.Ip { host = 0l; port = 0 }))

(* --- Bindings (§3.5) --- *)

let sample_loid = Loid.make ~class_id:9L ~class_specific:9L ()
let sample_addr = Address.singleton (Address.Sim { host = 0; slot = 0 })

let test_binding_validity () =
  let never = Binding.make ~loid:sample_loid ~address:sample_addr () in
  Alcotest.(check bool) "no expiry valid" true (Binding.is_valid ~now:1e12 never);
  let till5 = Binding.make ~expires:5.0 ~loid:sample_loid ~address:sample_addr () in
  Alcotest.(check bool) "before expiry" true (Binding.is_valid ~now:4.9 till5);
  Alcotest.(check bool) "at expiry invalid" false (Binding.is_valid ~now:5.0 till5);
  let refreshed = Binding.with_expiry till5 None in
  Alcotest.(check bool) "expiry cleared" true (Binding.is_valid ~now:1e12 refreshed)

let arbitrary_binding =
  QCheck.make ~print:(Format.asprintf "%a" Binding.pp) Gens.binding

let binding_roundtrip =
  typed_roundtrip ~name:"binding wire roundtrip" ~count:300 arbitrary_binding
    ~to_value:Binding.to_value ~of_value:Binding.of_value ~equal:Binding.equal

(* A binding's record with its [epo] field replaced, or dropped. *)
let with_epoch b epo =
  match Codec.decode (Codec.encode (Binding.to_value b)) with
  | Ok (Value.Record fs) ->
      let fs = List.filter (fun (n, _) -> not (String.equal n "epo")) fs in
      Value.Record (match epo with None -> fs | Some e -> fs @ [ ("epo", e) ])
  | _ -> Alcotest.fail "a binding's bytes decode to a record"

let test_binding_epoch_field () =
  let b = Binding.make ~epoch:3 ~loid:sample_loid ~address:sample_addr () in
  (match Binding.of_value (with_epoch b (Some (Value.Int 3))) with
  | Ok b' -> Alcotest.check binding_t "epoch read" b b'
  | Error e -> Alcotest.failf "epo = 3: %s" e);
  (* Bindings minted before epochs existed have no [epo] field. *)
  (match Binding.of_value (with_epoch b None) with
  | Ok b' -> Alcotest.(check int) "absent epoch is 0" 0 (Binding.epoch b')
  | Error e -> Alcotest.failf "no epo: %s" e);
  (* A damaged one must not lose its incarnation silently. *)
  List.iter
    (fun bad ->
      match Binding.of_value (with_epoch b (Some bad)) with
      | Error e -> Alcotest.(check string) "mistyped epoch" "binding: bad epoch" e
      | Ok b' ->
          Alcotest.failf "epo = %s read as epoch %d" (Value.to_string bad)
            (Binding.epoch b'))
    [ Value.Str "3"; Value.Float 3.0; Value.I64 3L; Value.List [] ]

(* --- Cache --- *)

let mk_binding ?expires i =
  let loid = Loid.make ~class_id:100L ~class_specific:(Int64.of_int i) () in
  Binding.make ?expires ~loid ~address:(Address.singleton (Address.Sim { host = i; slot = i })) ()

let loid_of i = Loid.make ~class_id:100L ~class_specific:(Int64.of_int i) ()

let test_cache_hit_miss () =
  let c = Cache.create () in
  Cache.add c ~now:0.0 (mk_binding 1);
  Alcotest.(check bool) "hit" true (Cache.find c ~now:0.0 (loid_of 1) <> None);
  Alcotest.(check bool) "miss" true (Cache.find c ~now:0.0 (loid_of 2) = None);
  Alcotest.(check int) "lookups" 2 (Cache.lookups c);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Cache.hit_rate c)

let test_cache_expiry () =
  let c = Cache.create () in
  Cache.add c ~now:0.0 (mk_binding ~expires:5.0 1);
  Alcotest.(check bool) "valid before" true (Cache.find c ~now:4.0 (loid_of 1) <> None);
  Alcotest.(check bool) "expired after" true (Cache.find c ~now:6.0 (loid_of 1) = None);
  Alcotest.(check int) "purged" 0 (Cache.length c);
  (* Adding an already-expired binding is a no-op. *)
  Cache.add c ~now:10.0 (mk_binding ~expires:5.0 2);
  Alcotest.(check int) "expired not added" 0 (Cache.length c)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  Cache.add c ~now:0.0 (mk_binding 2);
  (* Touch 1 so 2 is the LRU victim. *)
  ignore (Cache.find c ~now:0.0 (loid_of 1));
  Cache.add c ~now:0.0 (mk_binding 3);
  Alcotest.(check bool) "1 kept" true (Cache.mem c ~now:0.0 (loid_of 1));
  Alcotest.(check bool) "2 evicted" false (Cache.mem c ~now:0.0 (loid_of 2));
  Alcotest.(check bool) "3 present" true (Cache.mem c ~now:0.0 (loid_of 3));
  Alcotest.(check int) "bounded" 2 (Cache.length c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c)

let test_cache_replace_no_evict () =
  let c = Cache.create ~capacity:1 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  (* Replacing the same LOID must not evict. *)
  Cache.add c ~now:0.0 (mk_binding 1);
  Alcotest.(check int) "no eviction on replace" 0 (Cache.evictions c);
  Alcotest.(check int) "length 1" 1 (Cache.length c)

let test_cache_zero_capacity () =
  let c = Cache.create ~capacity:0 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  Alcotest.(check int) "nothing cached" 0 (Cache.length c)

let test_cache_invalidate () =
  let c = Cache.create () in
  let b1 = mk_binding 1 in
  Cache.add c ~now:0.0 b1;
  Cache.invalidate c (loid_of 1);
  Alcotest.(check bool) "gone" false (Cache.mem c ~now:0.0 (loid_of 1));
  Cache.add c ~now:0.0 b1;
  (* invalidate_exact with a different binding is a no-op. *)
  let other =
    Binding.make ~loid:(loid_of 1)
      ~address:(Address.singleton (Address.Sim { host = 99; slot = 99 }))
      ()
  in
  Cache.invalidate_exact c other;
  Alcotest.(check bool) "exact mismatch kept" true (Cache.mem c ~now:0.0 (loid_of 1));
  Cache.invalidate_exact c b1;
  Alcotest.(check bool) "exact match removed" false (Cache.mem c ~now:0.0 (loid_of 1))

let test_cache_clear_resets_stats () =
  let c = Cache.create ~capacity:1 () in
  Cache.add c ~now:0.0 (mk_binding 1);
  ignore (Cache.find c ~now:0.0 (loid_of 1));
  Cache.add c ~now:0.0 (mk_binding 2) (* evicts 1 *);
  Cache.clear c;
  Alcotest.(check int) "emptied" 0 (Cache.length c);
  (* A cleared cache is statistically indistinguishable from a fresh
     one: lookups, hits, evictions and the LRU clock all reset. *)
  Alcotest.(check int) "lookups reset" 0 (Cache.lookups c);
  Alcotest.(check int) "hits reset" 0 (Cache.hits c);
  Alcotest.(check int) "evictions reset" 0 (Cache.evictions c);
  Alcotest.(check (float 1e-9)) "rate reset" 0.0 (Cache.hit_rate c);
  Cache.add c ~now:0.0 (mk_binding 2);
  Alcotest.(check bool) "usable after clear" true (Cache.mem c ~now:0.0 (loid_of 2));
  Alcotest.(check (option int)) "capacity preserved" (Some 1) (Cache.capacity c)

let test_cache_mem_purges_and_counts_nothing () =
  let c = Cache.create () in
  Cache.add c ~now:0.0 (mk_binding ~expires:5.0 1);
  Alcotest.(check bool) "present before expiry" true (Cache.mem c ~now:1.0 (loid_of 1));
  Alcotest.(check int) "mem counts no lookups" 0 (Cache.lookups c);
  Alcotest.(check bool) "absent after expiry" false (Cache.mem c ~now:6.0 (loid_of 1));
  Alcotest.(check int) "expired entry purged by mem" 0 (Cache.length c);
  Alcotest.(check int) "still no lookups" 0 (Cache.lookups c);
  Alcotest.(check int) "still no hits" 0 (Cache.hits c)

let test_cache_find_refresh () =
  let c = Cache.create () in
  let stale = mk_binding 1 in
  Cache.add c ~now:0.0 stale;
  (* The cache still holds the failing binding: refresh must not
     re-serve it — purge, report a miss, count one lookup. *)
  Alcotest.(check bool) "stale entry is a miss" true
    (Cache.find_refresh c ~now:0.0 ~stale = None);
  Alcotest.(check int) "stale entry purged" 0 (Cache.length c);
  Alcotest.(check int) "one lookup counted" 1 (Cache.lookups c);
  Alcotest.(check int) "no hit" 0 (Cache.hits c);
  (* A *different* cached binding for the same LOID is a hit. *)
  let fresh =
    Binding.make ~loid:(loid_of 1)
      ~address:(Address.singleton (Address.Sim { host = 9; slot = 9 }))
      ()
  in
  Cache.add c ~now:0.0 fresh;
  (match Cache.find_refresh c ~now:0.0 ~stale with
  | Some b ->
      Alcotest.(check bool) "different binding served" true (Binding.equal b fresh)
  | None -> Alcotest.fail "fresh binding not served");
  Alcotest.(check int) "two lookups" 2 (Cache.lookups c);
  Alcotest.(check int) "one hit" 1 (Cache.hits c);
  (* An expired replacement is a miss too, and gets purged. *)
  let expiring =
    Binding.make ~expires:5.0 ~loid:(loid_of 1)
      ~address:(Address.singleton (Address.Sim { host = 8; slot = 8 }))
      ()
  in
  Cache.add c ~now:0.0 expiring;
  Alcotest.(check bool) "expired replacement is a miss" true
    (Cache.find_refresh c ~now:6.0 ~stale = None);
  Alcotest.(check int) "expired replacement purged" 0 (Cache.length c)

(* Replay a random op sequence against a counter model: exactly [find]
   and [find_refresh] count lookups, hits never exceed lookups, [clear]
   resets to a fresh cache, and no op ever serves an expired or
   known-stale binding. *)
let cache_stats_invariants =
  QCheck.Test.make ~name:"cache statistics invariants" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (small_list
           (pair (int_range 0 5) (pair (int_range 0 6) (float_range 0.5 20.0)))))
    (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap () in
      let lookups = ref 0 and hits = ref 0 in
      let now = ref 0.0 in
      let ok = ref true in
      List.iter
        (fun (tag, (i, e)) ->
          now := !now +. 0.25;
          (match tag with
          | 0 -> Cache.add c ~now:!now (mk_binding ~expires:(!now +. e) i)
          | 1 -> (
              incr lookups;
              match Cache.find c ~now:!now (loid_of i) with
              | Some b ->
                  incr hits;
                  if not (Binding.is_valid ~now:!now b) then ok := false
              | None -> ())
          | 2 ->
              (* mem agrees with find and counts nothing itself; the
                 cross-checking find is modelled as one lookup. *)
              let m = Cache.mem c ~now:!now (loid_of i) in
              incr lookups;
              let f = Cache.find c ~now:!now (loid_of i) in
              if m <> (f <> None) then ok := false;
              if f <> None then incr hits
          | 3 -> Cache.invalidate c (loid_of i)
          | 4 -> (
              incr lookups;
              match Cache.find_refresh c ~now:!now ~stale:(mk_binding i) with
              | Some b ->
                  incr hits;
                  if Binding.equal b (mk_binding i) then ok := false;
                  if not (Binding.is_valid ~now:!now b) then ok := false
              | None -> ())
          | _ ->
              Cache.clear c;
              lookups := 0;
              hits := 0);
          if Cache.lookups c <> !lookups then ok := false;
          if Cache.hits c <> !hits then ok := false;
          if Cache.hits c > Cache.lookups c then ok := false;
          if Cache.length c > cap then ok := false)
        ops;
      !ok)

let test_loid_map_set () =
  let l1 = Loid.make ~class_id:1L ~class_specific:1L () in
  let l2 = Loid.make ~class_id:1L ~class_specific:2L () in
  let m = Loid.Map.(add l1 "a" (add l2 "b" empty)) in
  Alcotest.(check (option string)) "map find" (Some "a") (Loid.Map.find_opt l1 m);
  let s = Loid.Set.of_list [ l1; l2; l1 ] in
  Alcotest.(check int) "set dedups" 2 (Loid.Set.cardinal s)

let cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap () in
      List.iter (fun i -> Cache.add c ~now:0.0 (mk_binding i)) ops;
      Cache.length c <= cap)

let cache_never_returns_expired =
  QCheck.Test.make ~name:"cache never returns an expired binding" ~count:200
    QCheck.(small_list (pair (int_range 0 10) (float_range 0.1 10.0)))
    (fun ops ->
      let c = Cache.create () in
      List.iter (fun (i, e) -> Cache.add c ~now:0.0 (mk_binding ~expires:e i)) ops;
      List.for_all
        (fun (i, _) ->
          match Cache.find c ~now:5.0 (loid_of i) with
          | None -> true
          | Some b -> Binding.is_valid ~now:5.0 b)
        ops)

(* The LRU-backed cache against the fold-based one it replaced
   ([Cache_ref]): random operations over six LOIDs, two addresses each
   and bindings that expire, with capacities unbounded and 0-4. After
   every step both give the same result, the same statistics and the
   same surviving entries. *)
type cache_op =
  | Add of int * int * float option
  | Find of int
  | Find_refresh of int * int * float option
  | Invalidate of int
  | Invalidate_exact of int * int * float option
  | Mem of int
  | Clear

let cache_op_gen =
  let open QCheck.Gen in
  let key = int_bound 5 and variant = int_bound 1 in
  let expires = opt (float_range 0.5 6.0) in
  let binding f = map3 f key variant expires in
  frequency
    [
      (4, binding (fun k v e -> Add (k, v, e)));
      (4, map (fun k -> Find k) key);
      (2, binding (fun k v e -> Find_refresh (k, v, e)));
      (1, map (fun k -> Invalidate k) key);
      (1, binding (fun k v e -> Invalidate_exact (k, v, e)));
      (2, map (fun k -> Mem k) key);
      (1, return Clear);
    ]

let print_cache_op = function
  | Add (k, v, _) -> Printf.sprintf "add %d/%d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Find_refresh (k, v, _) -> Printf.sprintf "refresh %d/%d" k v
  | Invalidate k -> Printf.sprintf "invalidate %d" k
  | Invalidate_exact (k, v, _) -> Printf.sprintf "invalidate %d/%d" k v
  | Mem k -> Printf.sprintf "mem %d" k
  | Clear -> "clear"

let cache_matches_ref =
  let gen =
    QCheck.Gen.(
      pair (opt (int_bound 4)) (list_size (0 -- 60) (pair cache_op_gen (float_bound_inclusive 0.5))))
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %s: %s"
      (match cap with None -> "none" | Some c -> string_of_int c)
      (String.concat "; " (List.map (fun (op, _) -> print_cache_op op) ops))
  in
  QCheck.Test.make ~name:"cache = the fold-based reference" ~count:500
    (QCheck.make ~print gen)
    (fun (capacity, ops) ->
      let c = Cache.create ?capacity () and r = Cache_ref.create ?capacity () in
      let binding k v expires =
        Binding.make ?expires ~loid:(loid_of k)
          ~address:(Address.singleton (Address.Sim { host = k; slot = v }))
          ()
      in
      let same_binding = Option.equal Binding.equal in
      let now = ref 0.0 in
      List.for_all
        (fun (op, dt) ->
          now := !now +. dt;
          let now = !now in
          let agree =
            match op with
            | Add (k, v, e) ->
                let b = binding k v (Option.map (fun e -> now +. e -. 1.0) e) in
                Cache.add c ~now b;
                Cache_ref.add r ~now b;
                true
            | Find k -> same_binding (Cache.find c ~now (loid_of k)) (Cache_ref.find r ~now (loid_of k))
            | Find_refresh (k, v, e) ->
                let stale = binding k v e in
                same_binding (Cache.find_refresh c ~now ~stale) (Cache_ref.find_refresh r ~now ~stale)
            | Invalidate k ->
                Cache.invalidate c (loid_of k);
                Cache_ref.invalidate r (loid_of k);
                true
            | Invalidate_exact (k, v, e) ->
                let b = binding k v e in
                Cache.invalidate_exact c b;
                Cache_ref.invalidate_exact r b;
                true
            | Mem k -> Cache.mem c ~now (loid_of k) = Cache_ref.mem r ~now (loid_of k)
            | Clear ->
                Cache.clear c;
                Cache_ref.clear r;
                true
          in
          (* [mem] at the dawn of time purges nothing and touches nothing. *)
          let survivors m = List.filter (fun k -> m (loid_of k)) [ 0; 1; 2; 3; 4; 5 ] in
          agree
          && Cache.lookups c = Cache_ref.lookups r
          && Cache.hits c = Cache_ref.hits r
          && Cache.evictions c = Cache_ref.evictions r
          && Cache.length c = Cache_ref.length r
          && survivors (Cache.mem c ~now:Float.neg_infinity)
             = survivors (Cache_ref.mem r ~now:Float.neg_infinity))
        ops)

let () =
  Alcotest.run "naming"
    [
      ( "loid",
        [
          Alcotest.test_case "fields" `Quick test_loid_fields;
          Alcotest.test_case "responsible class" `Quick test_loid_responsible_class;
          Alcotest.test_case "public key in identity" `Quick
            test_loid_equality_covers_key;
          Alcotest.test_case "table" `Quick test_loid_table;
          Alcotest.test_case "map and set" `Quick test_loid_map_set;
          QCheck_alcotest.to_alcotest loid_roundtrip;
          QCheck_alcotest.to_alcotest loid_hash_and_print_unchanged;
          Alcotest.test_case "hash spreads" `Quick test_loid_hash_spread;
        ] );
      ( "address",
        [
          Alcotest.test_case "empty rejected" `Quick test_address_empty_rejected;
          Alcotest.test_case "semantics resolve targets" `Quick test_address_targets;
          Alcotest.test_case "address type tags" `Quick test_address_types;
          QCheck_alcotest.to_alcotest address_roundtrip;
        ] );
      ( "binding",
        [
          Alcotest.test_case "validity and expiry" `Quick test_binding_validity;
          Alcotest.test_case "epoch field" `Quick test_binding_epoch_field;
          QCheck_alcotest.to_alcotest binding_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit and miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "expiry" `Quick test_cache_expiry;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
          Alcotest.test_case "replace does not evict" `Quick test_cache_replace_no_evict;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "invalidation forms" `Quick test_cache_invalidate;
          Alcotest.test_case "clear resets statistics" `Quick
            test_cache_clear_resets_stats;
          Alcotest.test_case "mem purges and counts nothing" `Quick
            test_cache_mem_purges_and_counts_nothing;
          Alcotest.test_case "find_refresh (GetBinding refresh form)" `Quick
            test_cache_find_refresh;
          QCheck_alcotest.to_alcotest cache_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest cache_never_returns_expired;
          QCheck_alcotest.to_alcotest cache_stats_invariants;
          QCheck_alcotest.to_alcotest cache_matches_ref;
        ] );
    ]

let _ = ignore (addr_t, binding_t)
