(* The object store as it was before it indexed its files: [prune]
   lists every key on every disk and keeps those named after the
   object, and [remove] walks every history entry of every object. The
   store tests run it beside [Legion_store.Persistent] as an oracle.
   The logic is unchanged; the types are the library's, so results
   compare directly, and the functions the oracle does not drive are
   left out. *)

module Loid = Legion_naming.Loid
module Disk = Legion_store.Disk
module P = Legion_store.Persistent
module Opa = P.Opa

type mark = P.mark = Applied | Staged | Committed | Compensated

module History = struct
  type entry = P.History.entry = {
    version : int;
    opa : Opa.t;
    txn : string option;
    mutable mark : mark;
    mutable available : bool;
  }
end

type t = {
  disks : Disk.t list;
  keep : int;
  hist_cap : int;
  mutable rr : int;
  mutable version : int;
  hist : History.entry list ref Loid.Table.t;  (* newest first *)
  committed_mark : int Loid.Table.t;  (* newest committed-txn version *)
  verdicts : (string, mark) Hashtbl.t;
      (* (loid/txn) -> resolved verdict. Survives the case where the
         resolution arrives before any write for the pair has landed
         (the coordinator's outcome mark racing a delayed prepare-time
         snapshot): a later [put ~txn] must still inherit the verdict
         instead of staging forever. *)
}

let create ?(keep = 2) ?(hist_cap = 64) ~disks () =
  if disks = [] then invalid_arg "Persistent.create: no disks";
  if keep < 1 then invalid_arg "Persistent.create: keep < 1";
  if hist_cap < 1 then invalid_arg "Persistent.create: hist_cap < 1";
  {
    disks;
    keep;
    hist_cap;
    rr = 0;
    version = 0;
    hist = Loid.Table.create ();
    committed_mark = Loid.Table.create ();
    verdicts = Hashtbl.create 64;
  }

let verdict_key loid txn = Loid.to_string loid ^ "/" ^ txn

let find_disk t name = List.find_opt (fun d -> String.equal (Disk.name d) name) t.disks

let entries_ref t loid =
  match Loid.Table.find t.hist loid with
  | Some r -> r
  | None ->
      let r = ref [] in
      Loid.Table.set t.hist loid r;
      r

let mark_version t ~loid =
  Option.value ~default:0 (Loid.Table.find t.committed_mark loid)

(* An entry the pruner must not touch: a staged (in-doubt) transaction
   write — recovery may still need it to decide or audit the txn — or
   the newest committed transactional snapshot (the one at the commit
   watermark), which keeps the last committed state itself restorable
   through [rewind_to]. Resolved entries below the watermark, and
   compensated ones, only need their history rows — their files are
   droppable. Plain (untagged) checkpoint writes are never protected;
   they age out under [keep]/[hist_cap] exactly as before. *)
let protected t ~loid (e : History.entry) =
  e.History.mark = Staged
  || (e.History.mark = Committed && e.History.version = mark_version t ~loid)

(* Version files for one LOID are scattered round-robin across the disk
   set; without pruning, every [put] (an explicit store or a periodic
   checkpoint falling back to a fresh file) leaks the superseded
   version forever. Keep the newest [t.keep] and drop the rest —
   except files whose history entry is {!protected}. Dropped files
   leave their entry behind with [available = false], so the history
   stays queryable after the bytes are gone. *)
let prune t ~loid =
  let entries = entries_ref t loid in
  let entry_for v =
    List.find_opt (fun e -> e.History.version = v) !entries
  in
  let prefix = Loid.to_string loid ^ ".v" in
  let version_of file =
    (* "<loid>.v<N>.opr" -> N *)
    let tail = String.sub file (String.length prefix)
        (String.length file - String.length prefix)
    in
    match String.index_opt tail '.' with
    | None -> None
    | Some dot -> int_of_string_opt (String.sub tail 0 dot)
  in
  let versions =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun key ->
            if String.starts_with ~prefix key then
              Option.map (fun v -> (v, d, key)) (version_of key)
            else None)
          (Disk.keys d))
      t.disks
  in
  let newest_first =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) versions
  in
  (* Only plain checkpoint files consume [keep] slots. Transactional
     snapshots live and die by {!protected} alone — otherwise a burst
     of txn writes would evict the Magistrate's newest checkpoint and
     strand the object's activation record. *)
  let plain_seen = ref 0 in
  List.iter
    (fun (v, d, key) ->
      match entry_for v with
      | Some e when e.History.txn <> None ->
          if not (protected t ~loid e) then begin
            Disk.delete d ~key;
            e.History.available <- false
          end
      | Some e ->
          incr plain_seen;
          if !plain_seen > t.keep then begin
            Disk.delete d ~key;
            e.History.available <- false
          end
      | None ->
          incr plain_seen;
          if !plain_seen > t.keep then Disk.delete d ~key)
    newest_first;
  (* The entry list itself is bounded too: beyond [hist_cap] positions
     (newest first), unprotected entries are forgotten. *)
  let rec cap i = function
    | [] -> []
    | e :: rest ->
        if i < t.hist_cap || protected t ~loid e then e :: cap (i + 1) rest
        else cap (i + 1) rest
  in
  entries := cap 0 !entries

let put ?txn t ~loid blob =
  let disk = List.nth t.disks (t.rr mod List.length t.disks) in
  t.rr <- t.rr + 1;
  t.version <- t.version + 1;
  let file = Printf.sprintf "%s.v%d.opr" (Loid.to_string loid) t.version in
  Disk.write disk ~key:file blob;
  let opa = { Opa.disk = Disk.name disk; file } in
  let entries = entries_ref t loid in
  (* A transactional put normally stages; but a snapshot landing after
     its transaction was already resolved for this object (the
     coordinator's SaveState replies race its outcome marks) inherits
     the verdict — otherwise the late entry would stay Staged forever
     and read as a partial commit in the atomicity audit. *)
  let mark =
    match txn with
    | None -> Applied
    | Some id -> (
        match
          List.find_opt
            (fun e ->
              e.History.txn = Some id
              && (e.History.mark = Committed || e.History.mark = Compensated))
            !entries
        with
        | Some e -> e.History.mark
        | None -> (
            match Hashtbl.find_opt t.verdicts (verdict_key loid id) with
            | Some ((Committed | Compensated) as m) -> m
            | _ -> Staged))
  in
  entries :=
    { History.version = t.version; opa; txn; mark; available = true }
    :: !entries;
  (if mark = Committed && t.version > mark_version t ~loid then
     Loid.Table.set t.committed_mark loid t.version);
  prune t ~loid;
  opa

let put_at t (opa : Opa.t) blob =
  match find_disk t opa.Opa.disk with
  | None -> Error (Printf.sprintf "no disk %s in this jurisdiction" opa.Opa.disk)
  | Some d ->
      Disk.write d ~key:opa.Opa.file blob;
      Ok ()

let get t (opa : Opa.t) =
  match find_disk t opa.Opa.disk with
  | None -> None
  | Some d -> Disk.read d ~key:opa.Opa.file

let remove t (opa : Opa.t) =
  match find_disk t opa.Opa.disk with
  | None -> ()
  | Some d ->
      Disk.delete d ~key:opa.Opa.file;
      Loid.Table.iter
        (fun _ entries ->
          List.iter
            (fun e ->
              if Opa.equal e.History.opa opa then e.History.available <- false)
            !entries)
        t.hist

let history t ~loid =
  match Loid.Table.find t.hist loid with
  | None -> []
  | Some entries -> List.rev !entries

let mark_txn t ~loid ~txn mark =
  (* Remember the verdict even if no write for the pair has landed yet:
     the coordinator's outcome mark can race a delayed prepare-time
     snapshot, and the late [put ~txn] must find something to inherit.
     First verdict sticks (resolution is one-way). *)
  (match mark with
  | Committed | Compensated ->
      let key = verdict_key loid txn in
      if not (Hashtbl.mem t.verdicts key) then Hashtbl.add t.verdicts key mark
  | Applied | Staged -> ());
  match Loid.Table.find t.hist loid with
  | None -> ()
  | Some entries ->
      (* Resolution is one-way: only staged entries take the verdict.
         Re-marking with the same verdict is the coordinator's
         idempotent redrive; a contradictory re-resolution cannot flip
         an already resolved write. *)
      List.iter
        (fun e ->
          if e.History.txn = Some txn && e.History.mark = Staged then
            e.History.mark <- mark)
        !entries;
      (if mark = Committed then
         let mv =
           List.fold_left
             (fun acc e ->
               if e.History.txn = Some txn && e.History.mark = Committed
               then Stdlib.max acc e.History.version
               else acc)
             0 !entries
         in
         if mv > mark_version t ~loid then
           Loid.Table.set t.committed_mark loid mv);
      (* Advancing the committed mark (or resolving a staged txn) may
         release previously protected entries; re-prune. *)
      prune t ~loid

let rewind_to t ~loid ~version =
  match Loid.Table.find t.hist loid with
  | None -> Error "rewind: no history for object"
  | Some entries -> (
      match
        List.find_opt (fun e -> e.History.version = version) !entries
      with
      | None -> Error (Printf.sprintf "rewind: no version %d in history" version)
      | Some e when not e.History.available ->
          Error (Printf.sprintf "rewind: version %d was pruned" version)
      | Some e -> (
          match get t e.History.opa with
          | None -> Error (Printf.sprintf "rewind: version %d blob missing" version)
          | Some blob ->
              (* Event-sourced restore: the rewound state re-enters the
                 history as the newest version, nothing is rewritten. *)
              Ok (put t ~loid blob)))
