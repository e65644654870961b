(* Tests for the Jurisdiction object store's file indexes: the store
   against the whole-disk scan it replaced, and the cost of a [put] as
   the number of version files grows. *)

module Loid = Legion_naming.Loid
module Disk = Legion_store.Disk
module Persistent = Legion_store.Persistent
module Ref = Persistent_ref

(* --- The store against the scanning reference --- *)

(* Two LOIDs differ only in their public keys: both print as
   "L5.2+key", so their version files share one name prefix, which the
   scan matched together. *)
let loids =
  [|
    Loid.make ~class_id:5L ~class_specific:1L ();
    Loid.make ~public_key:"a" ~class_id:5L ~class_specific:2L ();
    Loid.make ~public_key:"b" ~class_id:5L ~class_specific:2L ();
  |]

type op =
  | Put of int * string option
  | Mark of int * string * Persistent.mark
  | Put_at of int  (* an address an earlier put returned, by index *)
  | Remove of int  (* likewise *)
  | Rewind of int * int  (* object, then a version of its history by index *)

let show_op = function
  | Put (o, None) -> Printf.sprintf "put %d" o
  | Put (o, Some x) -> Printf.sprintf "put %d ~txn:%s" o x
  | Mark (o, x, m) -> Printf.sprintf "mark %d %s %s" o x (Persistent.mark_name m)
  | Put_at i -> Printf.sprintf "put_at #%d" i
  | Remove i -> Printf.sprintf "remove #%d" i
  | Rewind (o, i) -> Printf.sprintf "rewind %d #%d" o i

let op_gen =
  let open QCheck.Gen in
  let obj = int_bound (Array.length loids - 1) in
  let txn = oneofl [ "t1"; "t2"; "t3" ] in
  let mark = oneofl Persistent.[ Committed; Compensated; Committed; Applied ] in
  frequency
    [
      (5, map (fun o -> Put (o, None)) obj);
      (3, map2 (fun o x -> Put (o, Some x)) obj txn);
      (3, map3 (fun o x m -> Mark (o, x, m)) obj txn mark);
      (2, map (fun i -> Put_at i) small_nat);
      (2, map (fun i -> Remove i) small_nat);
      (1, map2 (fun o i -> Rewind (o, i)) obj small_nat);
    ]

let arbitrary_case =
  QCheck.make
    ~print:(fun (keep, cap, ops) ->
      Printf.sprintf "keep %d, hist_cap %d: %s" keep cap
        (String.concat "; " (List.map show_op ops)))
    ~shrink:(fun (keep, cap, ops) yield ->
      QCheck.Shrink.list ops (fun ops -> yield (keep, cap, ops)))
    QCheck.Gen.(triple (1 -- 3) (1 -- 4) (list_size (1 -- 60) op_gen))

let disks () = [ Disk.create ~name:"d0"; Disk.create ~name:"d1" ]

let keys d = List.sort String.compare (Disk.keys d)

let show_entry (e : Persistent.History.entry) =
  Printf.sprintf "v%d %s%s%s" e.version (Persistent.mark_name e.mark)
    (match e.txn with Some x -> "/" ^ x | None -> "")
    (if e.available then "" else " gone")

let store_matches_scan =
  QCheck.Test.make ~name:"store matches the scanning reference" ~count:500
    arbitrary_case (fun (keep, hist_cap, ops) ->
      let new_disks = disks () and ref_disks = disks () in
      let s = Persistent.create ~keep ~hist_cap ~disks:new_disks () in
      let r = Ref.create ~keep ~hist_cap ~disks:ref_disks () in
      let minted = ref [||] in
      let nth i = !minted.(i mod Array.length !minted) in
      let agree what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: the store and the reference differ" what
      in
      List.iteri
        (fun step op ->
          let blob = Printf.sprintf "blob%d" step in
          let what = show_op op in
          (match op with
          | Put (o, txn) ->
              let a = Persistent.put ?txn s ~loid:loids.(o) blob in
              agree what a (Ref.put ?txn r ~loid:loids.(o) blob);
              minted := Array.append !minted [| a |]
          | Mark (o, txn, m) ->
              Persistent.mark_txn s ~loid:loids.(o) ~txn m;
              Ref.mark_txn r ~loid:loids.(o) ~txn m
          | Put_at i when !minted <> [||] ->
              agree what (Persistent.put_at s (nth i) blob) (Ref.put_at r (nth i) blob)
          | Remove i when !minted <> [||] ->
              Persistent.remove s (nth i);
              Ref.remove r (nth i)
          | Rewind (o, i) -> (
              let versions =
                List.map
                  (fun (e : Persistent.History.entry) -> e.version)
                  (Ref.history r ~loid:loids.(o))
              in
              match versions with
              | [] -> ()
              | vs ->
                  let version = List.nth vs (i mod List.length vs) in
                  let a = Persistent.rewind_to s ~loid:loids.(o) ~version in
                  agree what a (Ref.rewind_to r ~loid:loids.(o) ~version);
                  Result.iter (fun a -> minted := Array.append !minted [| a |]) a)
          | Put_at _ | Remove _ -> ());
          List.iter2
            (fun a b ->
              if keys a <> keys b then
                QCheck.Test.fail_reportf "after %s, disk %s holds [%s], the reference [%s]"
                  what (Disk.name a)
                  (String.concat " " (keys a))
                  (String.concat " " (keys b)))
            new_disks ref_disks;
          Array.iteri
            (fun o loid ->
              let a = Persistent.history s ~loid and b = Ref.history r ~loid in
              if a <> b then
                QCheck.Test.fail_reportf "after %s, object %d's history is [%s], the reference [%s]"
                  what o
                  (String.concat "; " (List.map show_entry a))
                  (String.concat "; " (List.map show_entry b)))
            loids)
        ops;
      true)

(* --- Allocation per put does not grow with the store --- *)

(* Minor words are a function of the code and the inputs, not of the
   machine, so the bound holds anywhere. Each store holds two version
   files per object; the measured puts go to the same 25 objects, four
   each, so only the number of other files differs. *)
let words_per_put ~files =
  let s = Persistent.create ~disks:(disks ()) () in
  let loid i = Loid.make ~class_id:9L ~class_specific:(Int64.of_int (i + 1)) () in
  for i = 0 to (files / 2) - 1 do
    ignore (Persistent.put s ~loid:(loid i) "state");
    ignore (Persistent.put s ~loid:(loid i) "state")
  done;
  let puts = 100 in
  let w0 = Gc.minor_words () in
  for i = 0 to puts - 1 do
    ignore (Persistent.put s ~loid:(loid (i mod 25)) "state")
  done;
  (Gc.minor_words () -. w0) /. float_of_int puts

let test_put_words_flat () =
  let small = words_per_put ~files:50 and large = words_per_put ~files:5000 in
  Alcotest.(check bool)
    (Printf.sprintf "words per put with 5000 files (%.0f) <= 1.2 x with 50 (%.0f)"
       large small)
    true
    (large <= 1.2 *. small)

let () =
  Alcotest.run "store"
    [
      ("index", [ QCheck_alcotest.to_alcotest store_matches_scan ]);
      ("growth", [ Alcotest.test_case "put words flat in files" `Quick test_put_words_flat ]);
    ]
