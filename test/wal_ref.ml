(* The transaction coordinator's write-ahead log as it was before it kept
   one record per open transaction: one blob under [wal.<loid>] holds the
   sequence counter, the owner epoch and every open transaction, and each
   state change re-encodes all of it after decoding it to check the
   owner. The txn tests drive it beside [Legion_txn.Wal] as an oracle.
   The logic is the coordinator's old [wal_write], [am_owner] and
   [recover_from_wal] fold, without their effects: the caller passes the
   store, the epoch, the sequence counter and the transaction table, and
   gets the folded transactions back. *)

module Value = Legion_wire.Value
module Codec = Legion_wire.Codec
module Persistent = Legion_store.Persistent
module Wal = Legion_txn.Wal

let am_owner s ~name ~epoch =
  match Persistent.get_named s ~name with
  | None -> true
  | Some blob -> (
      match Codec.decode blob with
      | Error _ -> true
      | Ok v -> (
          match Value.field_opt v "owner" with
          | Some (Value.Int e) -> epoch >= e
          | _ -> true))

(* [txns] is the coordinator's table of every transaction it has run,
   finished ones included. *)
let write s ~name ~epoch ~seq (txns : (string, Wal.txn) Hashtbl.t) =
  if am_owner s ~name ~epoch then
    let open_txns =
      Hashtbl.fold
        (fun _ (t : Wal.txn) acc ->
          match t.phase with
          | Running | Committing | Compensating -> Wal.txn_to_value t :: acc
          | Committed | Compensated -> acc)
        txns []
    in
    let v =
      Value.Record
        [
          ("seq", Value.Int seq);
          ("owner", Value.Int epoch);
          ("txns", Value.List open_txns);
        ]
    in
    Persistent.put_named s ~name (Codec.encode v)

(* The sequence counter the log holds (0 when it holds none) and its
   transactions, in log order; [None] when there is no log. *)
let recover s ~name : ((int * Wal.txn list) option, string) result =
  match Persistent.get_named s ~name with
  | None -> Ok None
  | Some blob -> (
      match Codec.decode blob with
      | Error _ -> Error "corrupt transaction WAL"
      | Ok v ->
          let seq =
            match Value.field_opt v "seq" with
            | Some (Value.Int seq) -> seq
            | _ -> 0
          in
          let tvs =
            match Value.field_opt v "txns" with
            | Some (Value.List l) -> l
            | _ -> []
          in
          Ok
            (Some
               ( seq,
                 List.filter_map
                   (fun tv -> Result.to_option (Wal.txn_of_value tv))
                   tvs )))
