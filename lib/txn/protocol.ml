module Value = Legion_wire.Value
module Err = Legion_rt.Err
module Event = Legion_obs.Event
module Persistent = Legion_store.Persistent

type request = Prepare | Apply | Commit | Abort | Undo

type input =
  | Begin
  | Answer of request * int * (Value.t, Err.t) result
  | Redrive
  | Resume of int list

type action =
  | Send of request * int
  | Stage of int
  | Mark of int * Persistent.mark
  | Resolve of Persistent.mark
  | Log of Wal.txn
  | Close
  | Emit of Event.kind
  | Reply of (Value.t, Err.t) result
  | Arm_redrive

type t = { txn : Wal.txn; votes : int; veto : string option; outstanding : int }

let init txn = { txn; votes = 0; veto = None; outstanding = 0 }

(* A short stable tag for Txn_abort reasons, so traces and the E20
   tables aggregate; the epoch-fence case is the one the gate keys on
   (a fenced participant's vote is an abort, never a hang). *)
let reason_of = function
  | Err.Stale_epoch -> "stale-epoch"
  | Err.Txn_locked _ -> "locked"
  | Err.Overloaded _ | Err.Quota_exceeded _ -> "overloaded"
  | Err.Timeout -> "timeout"
  | Err.Refused _ | Err.Denied _ -> "refused"
  | Err.No_quorum _ -> "no-quorum"
  | Err.No_such_object | Err.Unreachable _ | Err.Corrupt _ -> "unreachable"
  | Err.Txn_aborted _ -> "nested-abort"
  | Err.No_such_method _ | Err.Bad_args _ -> "bad-call"
  | Err.Not_bound _ | Err.Internal _ -> "error"

let all (t : Wal.txn) = List.init (Array.length t.steps) Fun.id
let without i = List.filter (fun j -> j <> i)
let committed (t : Wal.txn) =
  Emit (Txn_commit { txn = t.id; participants = Array.length t.steps })
let compensated (t : Wal.txn) i =
  Emit (Compensate { txn = t.id; participant = t.steps.(i).dst })
let prepared (t : Wal.txn) i =
  Emit (Prepare { txn = t.id; participant = t.steps.(i).dst })
let aborted (t : Wal.txn) reason = Emit (Txn_abort { txn = t.id; reason })

(* The transaction reaches its final phase: every acknowledgement of a
   commit or rollback is in. *)
let finish s =
  let t = s.txn in
  match t.phase with
  | Committing ->
      ({ s with txn = { t with phase = Committed } }, [ committed t; Close ])
  | _ -> ({ s with txn = { t with phase = Compensated } }, [ Close ])

(* 2PC's fan-out: the request to every pending step at once, then wait
   for all the answers. *)
let fan s req =
  ( { s with outstanding = List.length s.txn.pending },
    List.map (fun i -> Send (req, i)) s.txn.pending )

(* One drive pass. 2PC fans out its pending commits or aborts; a saga
   applies its compensations one at a time, in reverse application order
   (a compensation may depend on the later steps already being undone).
   An incarnation that no longer owns the log drives nothing: its
   successor owns the transaction. *)
let drive ~owner s =
  let t = s.txn in
  match (t.phase, t.mode, t.pending) with
  | (Running | Committed | Compensated), _, _ -> (s, [])
  | _ when not (owner ()) -> (s, [])
  | _, _, [] -> finish s
  | Committing, _, _ -> fan s Commit
  | Compensating, Two_phase, _ -> fan s Abort
  | Compensating, Saga, i :: _ -> (s, [ Send (Undo, i) ])

(* The decision: durable in the log before the client learns it. *)
let decide ~owner s (t : Wal.txn) =
  let mark, reply =
    if t.phase = Committing then (Persistent.Committed, Ok (Value.Str t.id))
    else (Persistent.Compensated, Error (Err.Txn_aborted { txn = t.id }))
  in
  let s, drove = drive ~owner { s with txn = t } in
  (s, Log t :: Resolve mark :: Reply reply :: drove)

(* The saga's forward path: the next step, or the commit once none is
   left. *)
let forward ~owner s =
  let t = s.txn in
  if not (owner ()) then (s, [ Reply (Error Err.Stale_epoch) ])
  else
    match t.pending with
    | i :: _ -> (s, [ Send (Apply, i) ])
    | [] ->
        ( { s with txn = { t with phase = Committed } },
          Resolve Persistent.Committed
          :: List.map (fun i -> Mark (i, Persistent.Committed)) (all t)
          @ [ committed t; Close; Reply (Ok (Value.Str t.id)) ] )

let step ~owner s input =
  let t = s.txn in
  match (input, t.phase) with
  | Begin, Running -> (
      match t.mode with
      | Two_phase -> (s, List.map (fun i -> Send (Prepare, i)) (all t))
      | Saga -> forward ~owner s)
  | Answer (Prepare, i, r), Running -> (
      let veto =
        match (s.veto, r) with None, Error e -> Some (reason_of e) | v, _ -> v
      in
      let s = { s with votes = s.votes + 1; veto } in
      let voted =
        match r with Ok _ -> [ prepared t i; Stage i ] | Error _ -> []
      in
      if s.votes < Array.length t.steps then (s, voted)
      else if not (owner ()) then
        (* A recovered incarnation took over mid-prepare; it folded this
           transaction as Running and is aborting it. Do not promise a
           commit the successor will roll back. *)
        (s, voted @ [ Reply (Error Err.Stale_epoch) ])
      else
        match veto with
        | None ->
            let t = { t with phase = Committing } in
            let s, decided = decide ~owner s t in
            (s, voted @ decided)
        | Some reason ->
            let t = { t with phase = Compensating; pending = all t } in
            let s, decided = decide ~owner s t in
            (s, voted @ (aborted t reason :: decided)))
  | Answer (Apply, i, Ok _), Running ->
      let t = { t with pending = without i t.pending } in
      let s, next = forward ~owner { s with txn = t } in
      (s, prepared t i :: Stage i :: Log t :: next)
  | Answer (Apply, i, Error e), Running ->
      let pending = List.rev (List.init i Fun.id) in
      let t = { t with phase = Compensating; pending } in
      let s, decided = decide ~owner s t in
      (s, aborted t (reason_of e) :: decided)
  | (Answer (Commit, i, r), Committing | Answer (Abort, i, r), Compensating) ->
      let ok = Result.is_ok r in
      let t = if ok then { t with pending = without i t.pending } else t in
      let acked =
        match (ok, t.phase) with
        | false, _ -> []
        | true, Committing -> [ Mark (i, Persistent.Committed) ]
        | true, _ -> [ compensated t i; Mark (i, Persistent.Compensated) ]
      in
      let s = { s with txn = t; outstanding = s.outstanding - 1 } in
      if s.outstanding > 0 then (s, acked)
      else if t.pending = [] then
        let s, finished = finish s in
        (s, acked @ finished)
      else (s, acked @ [ Log t; Arm_redrive ])
  | Answer (Undo, i, Ok _), Compensating ->
      let t = { t with pending = without i t.pending } in
      let s, drove = drive ~owner { s with txn = t } in
      (s, compensated t i :: Mark (i, Persistent.Compensated) :: Log t :: drove)
  | Answer (Undo, _, Error _), Compensating -> (s, [ Arm_redrive ])
  | Redrive, _ -> drive ~owner s
  (* Presumed abort: a logged Committing record finishes the commit,
     anything still Running rolls back. *)
  | Resume applied, Running ->
      let pending =
        match t.mode with Two_phase -> all t | Saga -> List.rev applied
      in
      let t = { t with phase = Compensating; pending } in
      let s, drove = drive ~owner { s with txn = t } in
      ( s,
        Emit (Resume { txn = t.id; decision = "abort" })
        :: aborted t "crash-recovery"
        :: Resolve Persistent.Compensated
        :: Log t :: drove )
  | Resume _, (Committing | Compensating) ->
      let decision = if t.phase = Committing then "commit" else "abort" in
      let s, drove = drive ~owner s in
      (s, Emit (Resume { txn = t.id; decision }) :: drove)
  | (Begin | Answer _ | Resume _), _ -> (s, [])
