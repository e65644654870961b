module Value = Legion_wire.Value
module Codec = Legion_wire.Codec
module Loid = Legion_naming.Loid
module C = Legion_core.Convert
module Persistent = Legion_store.Persistent

type mode = Two_phase | Saga

let mode_to_string = function Two_phase -> "2pc" | Saga -> "saga"

let mode_of_string = function
  | "2pc" -> Ok Two_phase
  | "saga" -> Ok Saga
  | s -> Error (Printf.sprintf "unknown transaction mode %S" s)

type phase = Running | Committing | Committed | Compensating | Compensated

let phase_to_string = function
  | Running -> "running"
  | Committing -> "committing"
  | Committed -> "committed"
  | Compensating -> "compensating"
  | Compensated -> "compensated"

let phase_of_string = function
  | "running" -> Ok Running
  | "committing" -> Ok Committing
  | "committed" -> Ok Committed
  | "compensating" -> Ok Compensating
  | "compensated" -> Ok Compensated
  | s -> Error (Printf.sprintf "unknown transaction phase %S" s)

type step = {
  dst : Loid.t;
  meth : string;
  args : Value.t list;
  cmeth : string;
  cargs : Value.t list;
}

type txn = {
  id : string;
  mode : mode;
  steps : step array;
  phase : phase;
  pending : int list;
}

let step_to_value s =
  Value.Record
    [
      ("dst", Loid.to_value s.dst);
      ("meth", Value.Str s.meth);
      ("args", Value.List s.args);
      ("cmeth", Value.Str s.cmeth);
      ("cargs", Value.List s.cargs);
    ]

let step_of_value v =
  let ( let* ) r f = Result.bind r f in
  let* dst = C.loid_field v "dst" in
  let* meth = C.str_field v "meth" in
  let list_or name =
    match Value.field_opt v name with
    | None -> Ok []
    | Some (Value.List l) -> Ok l
    | Some _ -> Error (Printf.sprintf "field %s: not a list" name)
  in
  let* args = list_or "args" in
  let* cmeth =
    match Value.field_opt v "cmeth" with
    | None -> Ok ""
    | Some (Value.Str s) -> Ok s
    | Some _ -> Error "field cmeth: not a string"
  in
  let* cargs = list_or "cargs" in
  Ok { dst; meth; args; cmeth; cargs }

let txn_to_value t =
  Value.Record
    [
      ("id", Value.Str t.id);
      ("mode", Value.Str (mode_to_string t.mode));
      ("phase", Value.Str (phase_to_string t.phase));
      ("pending", Value.of_list Value.of_int t.pending);
      ("steps", Value.of_list step_to_value (Array.to_list t.steps));
    ]

let txn_of_value v =
  let ( let* ) r f = Result.bind r f in
  let* id = C.str_field v "id" in
  let* mode = Result.bind (C.str_field v "mode") mode_of_string in
  let* phase = Result.bind (C.str_field v "phase") phase_of_string in
  let pending =
    match Value.field_opt v "pending" with
    | Some (Value.List l) ->
        List.filter_map
          (function Value.Int i -> Some i | _ -> None)
          l
    | _ -> []
  in
  let* steps =
    match Value.field_opt v "steps" with
    | Some (Value.List l) ->
        List.fold_left
          (fun acc sv ->
            Result.bind acc (fun acc ->
                Result.map (fun s -> s :: acc) (step_of_value sv)))
          (Ok []) l
        |> Result.map (fun l -> Array.of_list (List.rev l))
    | _ -> Error "txn: missing steps"
  in
  Ok { id; mode; steps; phase; pending }

let head_key loid = "wal." ^ Loid.to_string loid
let record_name head id = head ^ "/" ^ id
let record_key loid = record_name (head_key loid)

type t = {
  store : unit -> Persistent.t option;
  epoch : int;
  owner : string;
  head : string;
  mutable seq : int;
  mutable open_ids : string list;  (* oldest first *)
}

let create loid ~epoch store =
  {
    store;
    epoch;
    owner = head_key loid ^ ".owner";
    head = head_key loid;
    seq = 0;
    open_ids = [];
  }

(* An owner key that does not decode counts as missing: the next
   write replaces it. *)
let stored_owner w s =
  match Persistent.get_named s ~name:w.owner with
  | None -> None
  | Some blob -> (
      match Codec.decode blob with Ok (Value.Int e) -> Some e | _ -> None)

(* Fencing token against coordinator split-brain. A false-dead verdict
   (probe lost in a drop window) can reactivate the coordinator
   elsewhere while this incarnation is still running; the recovered
   incarnation claims the log and may abort a transaction this one
   would go on to commit. *)
let am_owner w =
  match w.store () with
  | None -> true
  | Some s -> (
      match stored_owner w s with Some e -> w.epoch >= e | None -> true)

(* Every write goes through here: it is suppressed when a newer
   incarnation owns the log, so a fenced incarnation cannot clobber its
   successor's records. An incarnation's first write records its epoch
   under the owner key; later ones find it there. *)
let write w f =
  match w.store () with
  | None -> ()
  | Some s -> (
      match stored_owner w s with
      | Some e when e > w.epoch -> ()
      | Some e when e = w.epoch -> f s
      | None | Some _ ->
          Persistent.put_named s ~name:w.owner
            (Codec.encode (Value.Int w.epoch));
          f s)

let put_head w s =
  Persistent.put_named s ~name:w.head
    (Codec.encode
       (Value.Record
          [
            ("seq", Value.Int w.seq);
            ("open", Value.of_list Value.of_string w.open_ids);
          ]))

let put_record w s t =
  Persistent.put_named s ~name:(record_name w.head t.id)
    (Codec.encode (txn_to_value t))

(* The record lands before the head that lists it, and the head drops
   an id before its record goes, so the head never names a missing
   record. *)
let open_txn w ~seq t =
  w.seq <- seq;
  w.open_ids <- w.open_ids @ [ t.id ];
  write w (fun s ->
      put_record w s t;
      put_head w s)

let update w t = write w (fun s -> put_record w s t)

let finish w t =
  w.open_ids <- List.filter (fun id -> not (String.equal id t.id)) w.open_ids;
  write w (fun s ->
      put_head w s;
      Persistent.remove_named s ~name:(record_name w.head t.id))

let adopt w t = w.open_ids <- w.open_ids @ [ t.id ]

let claim w ~seq =
  w.seq <- seq;
  write w (put_head w)

let open_count w = List.length w.open_ids

let recover w =
  let ( let* ) r f = Result.bind r f in
  match w.store () with
  | None -> Ok None
  | Some s -> (
      match Persistent.get_named s ~name:w.head with
      | None -> Ok None
      | Some blob ->
          let record id =
            match Persistent.get_named s ~name:(record_name w.head id) with
            | None -> Error ("missing record " ^ id)
            | Some blob -> Result.bind (Codec.decode blob) txn_of_value
          in
          let folded =
            let* head = Codec.decode blob in
            let* seq = C.int_field head "seq" in
            let* ids = C.str_list_field head "open" in
            let* txns =
              List.fold_left
                (fun acc id ->
                  let* acc = acc in
                  let* t = record id in
                  Ok (t :: acc))
                (Ok []) ids
            in
            Ok (Some (seq, List.rev txns))
          in
          Result.map_error (fun _ -> "corrupt transaction WAL") folded)
