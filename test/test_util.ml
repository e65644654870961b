(* Unit and property tests for Legion_util: PRNG, statistics and
   counters, the ordered keyed table (against its old form,
   test/lru_ref.ml), plus the binary heap (test/heap.ml) that serves as
   the event engine's oracle in test_sim.ml. *)

module Prng = Legion_util.Prng
module Stats = Legion_util.Stats
module Counter = Legion_util.Counter

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_matters () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_copy () =
  let a = Prng.create ~seed:99L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy continues stream" (Prng.next_int64 a)
      (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create ~seed:5L in
  let child = Prng.split a in
  (* Splitting must not replay the parent stream. *)
  let x = Prng.next_int64 a and y = Prng.next_int64 child in
  Alcotest.(check bool) "split streams differ" false (Int64.equal x y)

(* splitmix64 (Steele, Lea and Flood) written out on [Int64]: the
   stream [Prng] must keep however it stores its state. *)
let splitmix64 seed =
  let state = ref seed in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

let test_prng_stream_pinned () =
  let same name t next =
    for i = 1 to 10_000 do
      let want = next () and got = Prng.next_int64 t in
      if not (Int64.equal got want) then
        Alcotest.failf "%s: output %d is %Ld, want %Ld" name i got want
    done
  in
  List.iter
    (fun seed -> same (Printf.sprintf "seed %Ld" seed) (Prng.create ~seed) (splitmix64 seed))
    [ 0L; 1L; -1L; Int64.shift_left 1L 62 ];
  (* A split is seeded by its parent's next output; a copy continues its
     original's stream and leaves the original where it was. *)
  let parent = Prng.create ~seed:42L and parent_ref = splitmix64 42L in
  same "split" (Prng.split parent) (splitmix64 (parent_ref ()));
  let copy_ref = splitmix64 42L in
  ignore (copy_ref ());
  same "copy" (Prng.copy parent) copy_ref;
  same "original after copy" parent parent_ref

let test_prng_int_bounds () =
  let t = Prng.create ~seed:3L in
  for _ = 1 to 1000 do
    let x = Prng.int t 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of range: %d" x
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_int_in () =
  let t = Prng.create ~seed:4L in
  for _ = 1 to 1000 do
    let x = Prng.int_in t ~lo:(-5) ~hi:5 in
    if x < -5 || x > 5 then Alcotest.failf "out of range: %d" x
  done

let test_prng_float_bounds () =
  let t = Prng.create ~seed:8L in
  for _ = 1 to 1000 do
    let x = Prng.float t 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.failf "out of range: %f" x
  done

let test_prng_bernoulli_extremes () =
  let t = Prng.create ~seed:9L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli t ~p:0.0);
    Alcotest.(check bool) "p=1 always" true (Prng.bernoulli t ~p:1.0)
  done

let test_prng_bernoulli_rate () =
  let t = Prng.create ~seed:10L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli t ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.3) > 0.02 then Alcotest.failf "rate %f too far from 0.3" rate

let test_prng_exponential_mean () =
  let t = Prng.create ~seed:11L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.exponential t ~mean:2.0 in
    if x < 0.0 then Alcotest.fail "negative exponential draw";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 2.0) > 0.1 then Alcotest.failf "mean %f too far from 2" mean

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:12L in
  let arr = Array.init 20 (fun i -> i) in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_prng_sample () =
  let t = Prng.create ~seed:13L in
  let arr = Array.init 10 (fun i -> i) in
  let s = Prng.sample_without_replacement t 4 arr in
  Alcotest.(check int) "size" 4 (List.length s);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare s));
  Alcotest.check_raises "too many"
    (Invalid_argument "Prng.sample_without_replacement") (fun () ->
      ignore (Prng.sample_without_replacement t 11 arr))

(* --- Stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  Stats.add_list s [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min of empty" (Invalid_argument "Stats.min: empty")
    (fun () -> ignore (Stats.min s));
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.0))

let test_stats_percentile () =
  let s = Stats.create () in
  Stats.add_list s (List.init 101 (fun i -> float_of_int i));
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.median s);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p25" 25.0 (Stats.percentile s 25.0)

let test_stats_percentile_interpolates () =
  let s = Stats.create () in
  Stats.add_list s [ 0.0; 10.0 ];
  Alcotest.(check (float 1e-9)) "p50 interpolated" 5.0 (Stats.median s)

let test_stats_merge_clear () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add_list a [ 1.0; 2.0 ];
  Stats.add_list b [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  Alcotest.(check int) "merged count" 4 (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2.5 (Stats.mean m);
  Stats.clear a;
  Alcotest.(check int) "cleared" 0 (Stats.count a)

let test_stats_add_after_percentile () =
  (* Percentile sorts a cache; adding must invalidate it. *)
  let s = Stats.create () in
  Stats.add_list s [ 3.0; 1.0 ];
  ignore (Stats.median s);
  Stats.add s 100.0;
  Alcotest.(check (float 1e-9)) "p100 sees new sample" 100.0
    (Stats.percentile s 100.0)

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 10.0 |] in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.0; 5.0; 11.0; 100.0 ];
  Alcotest.(check int) "total" 5 (Stats.Histogram.total h);
  (match Stats.Histogram.counts h with
  | [ (Some 1.0, 2); (Some 10.0, 1); (None, 2) ] -> ()
  | cs ->
      Alcotest.failf "bad counts: %s"
        (String.concat ","
           (List.map
              (fun (b, c) ->
                Printf.sprintf "%s:%d"
                  (match b with Some f -> string_of_float f | None -> ">")
                  c)
              cs)));
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Histogram.create: bounds not strictly ascending")
    (fun () -> ignore (Stats.Histogram.create ~buckets:[| 2.0; 1.0 |]))

let test_stats_is_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "fresh is empty" true (Stats.is_empty s);
  Stats.add s 1.0;
  Alcotest.(check bool) "not empty after add" false (Stats.is_empty s);
  Stats.clear s;
  Alcotest.(check bool) "empty after clear" true (Stats.is_empty s)

let test_histogram_linear () =
  let h = Stats.Histogram.linear ~lo:0.0 ~width:2.0 ~count:3 in
  Alcotest.(check (array (float 1e-12))) "bounds" [| 2.0; 4.0; 6.0 |]
    (Stats.Histogram.bounds h);
  Alcotest.check_raises "bad count"
    (Invalid_argument "Histogram.linear: count must be positive") (fun () ->
      ignore (Stats.Histogram.linear ~lo:0.0 ~width:1.0 ~count:0));
  Alcotest.check_raises "bad width"
    (Invalid_argument "Histogram.linear: width must be positive") (fun () ->
      ignore (Stats.Histogram.linear ~lo:0.0 ~width:0.0 ~count:2))

let test_histogram_merge () =
  let a = Stats.Histogram.create ~buckets:[| 1.0; 2.0 |] in
  let b = Stats.Histogram.create ~buckets:[| 1.0; 2.0 |] in
  List.iter (Stats.Histogram.add a) [ 0.5; 1.5 ];
  List.iter (Stats.Histogram.add b) [ 1.5; 9.0 ];
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "merged total" 4 (Stats.Histogram.total m);
  (match Stats.Histogram.counts m with
  | [ (Some 1.0, 1); (Some 2.0, 2); (None, 1) ] -> ()
  | _ -> Alcotest.fail "bad merged counts");
  (* The inputs are untouched. *)
  Alcotest.(check int) "a untouched" 2 (Stats.Histogram.total a);
  let c = Stats.Histogram.create ~buckets:[| 3.0 |] in
  Alcotest.check_raises "mismatched bounds"
    (Invalid_argument "Histogram.merge: mismatched buckets") (fun () ->
      ignore (Stats.Histogram.merge a c))

let test_histogram_percentile () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 2.0; 3.0 |] in
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.percentile: empty")
    (fun () -> ignore (Stats.Histogram.percentile h 50.0));
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 2.5; 2.6 ];
  Alcotest.(check (float 1e-12)) "p25 first bucket" 1.0
    (Stats.Histogram.percentile h 25.0);
  Alcotest.(check (float 1e-12)) "p50 second bucket" 2.0
    (Stats.Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-12)) "p100 third bucket" 3.0
    (Stats.Histogram.percentile h 100.0);
  Alcotest.(check (float 1e-12)) "p0 clamps to first sample" 1.0
    (Stats.Histogram.percentile h 0.0);
  Stats.Histogram.add h 99.0;
  Alcotest.(check bool) "overflow is infinity" true
    (Stats.Histogram.percentile h 100.0 = infinity);
  Alcotest.check_raises "range" (Invalid_argument "Histogram.percentile: out of range")
    (fun () -> ignore (Stats.Histogram.percentile h 101.0))

(* Random strictly-ascending bounds plus random samples (some outside the
   range): each sample must land in the first bucket whose bound covers
   it, overflow otherwise. *)
let hist_bucket_assignment =
  QCheck.Test.make ~name:"histogram bucket assignment" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_bound 100))
              (list_of_size Gen.(0 -- 50) (int_bound 140)))
    (fun (bound_ints, sample_ints) ->
      let bounds =
        List.sort_uniq compare bound_ints |> List.map float_of_int
      in
      QCheck.assume (bounds <> []);
      let bounds = Array.of_list bounds in
      let samples = List.map (fun i -> float_of_int i -. 20.0) sample_ints in
      let h = Stats.Histogram.create ~buckets:bounds in
      List.iter (Stats.Histogram.add h) samples;
      let n = Array.length bounds in
      let expected = Array.make (n + 1) 0 in
      List.iter
        (fun x ->
          let rec idx i =
            if i = n then n else if x <= bounds.(i) then i else idx (i + 1)
          in
          let i = idx 0 in
          expected.(i) <- expected.(i) + 1)
        samples;
      let actual = Array.of_list (List.map snd (Stats.Histogram.counts h)) in
      expected = actual && Stats.Histogram.total h = List.length samples)

let hist_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:200
    QCheck.(triple (small_list (float_bound_exclusive 10.0))
              (small_list (float_bound_exclusive 10.0))
              (small_list (float_bound_exclusive 10.0)))
    (fun (xs, ys, zs) ->
      let mk samples =
        let h = Stats.Histogram.linear ~lo:0.0 ~width:2.5 ~count:3 in
        List.iter (Stats.Histogram.add h) samples;
        h
      in
      let a = mk xs and b = mk ys and c = mk zs in
      let open Stats.Histogram in
      counts (merge a (merge b c)) = counts (merge (merge a b) c)
      && total (merge a (merge b c)) = total (merge (merge a b) c))

(* At integral ranks p = 100*i/(n-1), [Stats.percentile] degenerates to
   the i-th order statistic, and the histogram reports that sample's
   bucket upper bound — so the two agree to within one bucket width. *)
let hist_percentile_close =
  QCheck.Test.make ~name:"histogram percentile within one bucket of exact"
    ~count:200
    QCheck.(list_of_size Gen.(2 -- 40) (float_bound_exclusive 100.0))
    (fun samples ->
      let n = List.length samples in
      let s = Stats.create () in
      Stats.add_list s samples;
      let width = 5.0 in
      let h = Stats.Histogram.linear ~lo:0.0 ~width ~count:20 in
      List.iter (Stats.Histogram.add h) samples;
      List.for_all
        (fun i ->
          let p = 100.0 *. float_of_int i /. float_of_int (n - 1) in
          let exact = Stats.percentile s p in
          let coarse = Stats.Histogram.percentile h p in
          Float.abs (coarse -. exact) <= width +. 1e-6)
        (List.init n (fun i -> i)))

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (list int)) "drain sorted" [ 0; 1; 1; 3; 4; 5; 9 ]
    (Heap.drain_sorted h);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Heap.push h 42;
  Alcotest.(check (option int)) "peek" (Some 42) (Heap.peek h);
  Alcotest.(check int) "length" 1 (Heap.length h);
  Alcotest.(check (option int)) "pop" (Some 42) (Heap.pop h);
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Heap.pop_exn: empty")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_clear () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (list int)) "to_list empty" [] (Heap.to_list h);
  Heap.push h 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Heap.pop h)

let heap_sorts_any_list =
  QCheck.Test.make ~name:"heap drain_sorted equals List.sort" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      Heap.drain_sorted h = List.sort compare xs)

(* Model-based: a random interleaving of pushes and pops must behave
   like a sorted-list model — every pop returns the minimum of what
   remains, and length / is_empty / peek never drift from the model's
   size accounting. *)
let heap_model_interleaved =
  QCheck.Test.make ~name:"heap matches sorted-list model under push/pop"
    ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          let op_ok =
            if is_push then begin
              Heap.push h x;
              model := List.merge compare [ x ] !model;
              true
            end
            else
              let expect =
                match !model with
                | [] -> None
                | y :: tl ->
                    model := tl;
                    Some y
              in
              Heap.pop h = expect
          in
          op_ok
          && Heap.length h = List.length !model
          && Heap.is_empty h = (!model = [])
          && Heap.peek h = (match !model with [] -> None | y :: _ -> Some y))
        ops)

(* --- Lru as an ordered registry --- *)

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

module Lru_int = Legion_util.Lru.Make (Int_key)

(* With no capacity, adds of absent keys only and [peek] lookups, the
   table must behave like the newest-first list it replaces in the
   placement registries: cons on add, filter on remove. Entries carry
   their key and the step that added them. *)
let lru_matches_list_model =
  QCheck.Test.make ~name:"uncapped lru matches the newest-first list model"
    ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 15)))
    (fun ops ->
      let t = Lru_int.create ~key:fst () in
      let model = ref [] in
      let agrees () =
        Lru_int.fold List.cons t [] = !model
        && Lru_int.length t = List.length !model
        && List.for_all
             (fun k -> Lru_int.peek t k = List.find_opt (fun (k', _) -> k' = k) !model)
             (List.init 16 Fun.id)
      in
      List.for_all
        (fun (step, (kind, k)) ->
          (match kind with
          | 0 when not (List.mem_assoc k !model) ->
              Lru_int.add t (k, step);
              model := (k, step) :: !model
          | 1 ->
              Lru_int.remove t k;
              model := List.filter (fun (k', _) -> k' <> k) !model
          | _ -> ignore (Lru_int.peek t k));
          agrees ())
        (List.mapi (fun i op -> (i, op)) ops))

(* The table against its old form, a hashtable to the nodes of a
   recency list: any sequence of operations, at any capacity, must give
   the same results, lengths, eviction counts and newest-first order.
   An entry is its key and the step that added it, so a replacement
   shows. *)
module Lru_old = Lru_ref.Make (Int_key)

type lru_op = Add of int | Find of int | Peek of int | Remove of int | Clear

let lru_op_print = function
  | Add k -> Printf.sprintf "add %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

let lru_op_gen =
  let open QCheck.Gen in
  let key = int_bound 9 in
  frequency
    [
      (8, map (fun k -> Add k) key);
      (5, map (fun k -> Find k) key);
      (3, map (fun k -> Peek k) key);
      (3, map (fun k -> Remove k) key);
      (1, return Clear);
    ]

let lru_matches_reference =
  QCheck.Test.make ~name:"lru matches the reference lru" ~count:1000
    QCheck.(
      pair
        (make ~print:Print.(option int) Gen.(opt (int_bound 6)))
        (make ~print:Print.(list lru_op_print) Gen.(list_size (0 -- 120) lru_op_gen)))
    (fun (capacity, ops) ->
      let t = Lru_int.create ?capacity ~key:fst ()
      and o = Lru_old.create ?capacity ~key:fst () in
      List.for_all
        (fun (step, op) ->
          let result_agrees =
            match op with
            | Add k ->
                Lru_int.add t (k, step);
                Lru_old.add o (k, step);
                true
            | Find k -> Lru_int.find t k = Lru_old.find o k
            | Peek k -> Lru_int.peek t k = Lru_old.peek o k
            | Remove k ->
                Lru_int.remove t k;
                Lru_old.remove o k;
                true
            | Clear ->
                Lru_int.clear t;
                Lru_old.clear o;
                true
          in
          result_agrees
          && Lru_int.length t = Lru_old.length o
          && Lru_int.evictions t = Lru_old.evictions o
          && Lru_int.fold List.cons t [] = Lru_old.fold List.cons o [])
        (List.mapi (fun i op -> (i, op)) ops))

(* A hit returns the stored option, so it allocates nothing; an insert
   allocates only the option it stores. Measured over many operations
   less the cost of measuring, once the arrays have grown to their
   steady length. *)
let test_lru_allocation () =
  let n = 10_000 in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = words ignore in
  let per_op f = (words f -. overhead) /. float_of_int n in
  let t = Lru_int.create ~capacity:8 ~key:fst () in
  for k = 0 to 7 do
    Lru_int.add t (k, 0)
  done;
  let find_hit () =
    for i = 1 to n do
      ignore (Sys.opaque_identity (Lru_int.find t (i land 7)))
    done
  and peek_hit () =
    for i = 1 to n do
      ignore (Sys.opaque_identity (Lru_int.peek t (i land 7)))
    done
  in
  find_hit ();
  Alcotest.(check (float 0.0)) "find hit" 0.0 (per_op find_hit);
  Alcotest.(check (float 0.0)) "peek hit" 0.0 (per_op peek_hit);
  let fresh = Array.init n (fun i -> (100 + i, i)) in
  let insert () = Array.iter (Lru_int.add t) fresh in
  let w = per_op insert in
  if w > 4.0 then Alcotest.failf "an insert at capacity allocates %.2f words" w;
  Alcotest.(check int) "every insert evicted" n (Lru_int.evictions t)

let stats_percentile_bounded =
  QCheck.Test.make ~name:"percentiles lie within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let xs = match xs with [] -> [ 0.0 ] | xs -> xs in
      let s = Stats.create () in
      Stats.add_list s xs;
      let v = Stats.percentile s p in
      v >= Stats.min s -. 1e-9 && v <= Stats.max s +. 1e-9)

(* --- Sampler --- *)

module Sampler = Legion_util.Sampler

let test_zipf_bounds_and_skew () =
  let prng = Prng.create ~seed:5L in
  let z = Sampler.zipf prng ~n:10 ~s:1.0 in
  let counts = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let r = Sampler.zipf_draw z in
    if r < 0 || r >= 10 then Alcotest.failf "rank out of range: %d" r;
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 strictly more popular than rank 9, and empirical frequencies
     near the pmf. *)
  Alcotest.(check bool) "skewed" true (counts.(0) > counts.(9));
  let freq0 = float_of_int counts.(0) /. float_of_int n in
  if abs_float (freq0 -. Sampler.zipf_pmf z 0) > 0.02 then
    Alcotest.failf "rank-0 frequency %f vs pmf %f" freq0 (Sampler.zipf_pmf z 0)

let test_zipf_uniform_limit () =
  let prng = Prng.create ~seed:6L in
  let z = Sampler.zipf prng ~n:4 ~s:0.0 in
  List.iter
    (fun r ->
      Alcotest.(check (float 1e-9)) "uniform pmf" 0.25 (Sampler.zipf_pmf z r))
    [ 0; 1; 2; 3 ];
  Alcotest.(check (float 1e-9)) "out of range pmf" 0.0 (Sampler.zipf_pmf z 99);
  Alcotest.check_raises "bad n" (Invalid_argument "Sampler.zipf: n must be positive")
    (fun () -> ignore (Sampler.zipf prng ~n:0 ~s:1.0))

let test_poisson () =
  let prng = Prng.create ~seed:7L in
  let p = Sampler.poisson_process prng ~rate:10.0 in
  let arrivals = Sampler.arrivals_until p ~horizon:100.0 in
  (* ~1000 arrivals expected; all inside the horizon and ascending. *)
  let n = List.length arrivals in
  if n < 850 || n > 1150 then Alcotest.failf "arrival count %d" n;
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending" true (ascending arrivals);
  Alcotest.(check bool) "inside horizon" true
    (List.for_all (fun t -> t >= 0.0 && t < 100.0) arrivals);
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Sampler.poisson_process: rate must be positive") (fun () ->
      ignore (Sampler.poisson_process prng ~rate:0.0))

(* --- Counter --- *)

let test_pp_smoke () =
  (* The pretty-printers render something sensible and never raise. *)
  let s = Stats.create () in
  Alcotest.(check string) "empty stats" "n=0" (Format.asprintf "%a" Stats.pp s);
  Stats.add_list s [ 1.0; 2.0 ];
  Alcotest.(check bool) "mean shown" true
    (String.length (Format.asprintf "%a" Stats.pp s) > 10);
  let h = Stats.Histogram.create ~buckets:[| 1.0 |] in
  Stats.Histogram.add h 0.5;
  Alcotest.(check bool) "histogram renders" true
    (String.length (Format.asprintf "%a" Stats.Histogram.pp h) > 0);
  let r = Counter.Registry.create () in
  Counter.incr (Counter.Registry.make r ~group:"g" ~name:(lazy "n"));
  Alcotest.(check string) "registry renders" "g/n=1"
    (Format.asprintf "%a" Counter.Registry.pp r)

let test_counter_registry () =
  let r = Counter.Registry.create () in
  let a = Counter.Registry.make r ~group:"g1" ~name:(lazy "a") in
  let b = Counter.Registry.make r ~group:"g1" ~name:(lazy "b") in
  let c = Counter.Registry.make r ~group:"g2" ~name:(lazy "c") in
  Counter.incr a;
  Counter.add b 5;
  Counter.incr c;
  Alcotest.(check int) "value" 1 (Counter.value a);
  Alcotest.(check int) "group total" 6 (Counter.Registry.group_total r "g1");
  (match Counter.Registry.group_max r "g1" with
  | Some ("b", 5) -> ()
  | other ->
      Alcotest.failf "group_max: %s"
        (match other with
        | Some (n, v) -> Printf.sprintf "%s=%d" n v
        | None -> "none"));
  (* Every make registers a new counter, even under a name in use. *)
  let a' = Counter.Registry.make r ~group:"g1" ~name:(lazy "a") in
  Counter.incr a';
  Alcotest.(check int) "separate counter" 1 (Counter.value a);
  (* A name is formatted when first read, and only then. *)
  let formatted = ref 0 in
  let d =
    Counter.Registry.make r ~group:"g3"
      ~name:
        (lazy
          (incr formatted;
           "d"))
  in
  Alcotest.(check int) "not formatted by make" 0 !formatted;
  Alcotest.(check string) "name" "d" (Counter.name d);
  Alcotest.(check string) "name again" "d" (Counter.name d);
  Alcotest.(check int) "formatted once" 1 !formatted;
  Counter.Registry.reset r;
  Alcotest.(check int) "reset" 0 (Counter.Registry.group_total r "g1");
  Alcotest.(check int) "all registered" 5 (List.length (Counter.Registry.all r))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_prng_seed_matters;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "stream is splitmix64" `Quick test_prng_stream_pinned;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_prng_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_prng_sample;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "interpolation" `Quick test_stats_percentile_interpolates;
          Alcotest.test_case "merge and clear" `Quick test_stats_merge_clear;
          Alcotest.test_case "cache invalidation" `Quick test_stats_add_after_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "is_empty" `Quick test_stats_is_empty;
          Alcotest.test_case "histogram linear" `Quick test_histogram_linear;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "histogram percentile" `Quick
            test_histogram_percentile;
          QCheck_alcotest.to_alcotest stats_percentile_bounded;
          QCheck_alcotest.to_alcotest hist_bucket_assignment;
          QCheck_alcotest.to_alcotest hist_merge_associative;
          QCheck_alcotest.to_alcotest hist_percentile_close;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek and pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          QCheck_alcotest.to_alcotest heap_sorts_any_list;
          QCheck_alcotest.to_alcotest heap_model_interleaved;
        ] );
      ( "lru",
        [
          QCheck_alcotest.to_alcotest lru_matches_list_model;
          QCheck_alcotest.to_alcotest lru_matches_reference;
          Alcotest.test_case "hits allocate nothing" `Quick test_lru_allocation;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "zipf bounds and skew" `Slow test_zipf_bounds_and_skew;
          Alcotest.test_case "zipf uniform limit" `Quick test_zipf_uniform_limit;
          Alcotest.test_case "poisson process" `Slow test_poisson;
        ] );
      ("counter", [ Alcotest.test_case "registry" `Quick test_counter_registry ]);
      ("pp", [ Alcotest.test_case "printers" `Quick test_pp_smoke ]);
    ]
