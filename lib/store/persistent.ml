module Value = Legion_wire.Value
module Loid = Legion_naming.Loid

module Opa = struct
  type t = { disk : string; file : string }

  let equal a b = String.equal a.disk b.disk && String.equal a.file b.file
  let pp ppf t = Format.fprintf ppf "%s:%s" t.disk t.file

  let to_value t =
    Value.Record [ ("d", Value.Str t.disk); ("f", Value.Str t.file) ]

  let of_value v =
    let ( let* ) r f = Result.bind r f in
    let err e = Format.asprintf "opa: %a" Value.pp_error e in
    let* d = Result.map_error err (Result.bind (Value.field v "d") Value.to_str) in
    let* f = Result.map_error err (Result.bind (Value.field v "f") Value.to_str) in
    Ok { disk = d; file = f }
end

type mark = Applied | Staged | Committed | Compensated

let mark_name = function
  | Applied -> "applied"
  | Staged -> "staged"
  | Committed -> "committed"
  | Compensated -> "compensated"

module History = struct
  type entry = {
    version : int;
    opa : Opa.t;
    txn : string option;
    mutable mark : mark;
    mutable available : bool;
  }
end

(* A version file on disk: its version number, disk and file name. *)
type vfile = { v : int; disk : Disk.t; key : string }

type t = {
  disks : Disk.t list;
  keep : int;
  hist_cap : int;
  mutable rr : int;
  mutable version : int;
  hist : History.entry list ref Loid.Table.t;  (* newest first *)
  vfiles : (string, vfile list) Hashtbl.t;
      (* printed LOID -> the version files on disk named after it,
         newest first; no binding when there are none *)
  by_file : (string, History.entry) Hashtbl.t;
      (* file name -> the retained history entry whose [put] wrote it *)
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
    vfiles = Hashtbl.create 64;
    by_file = Hashtbl.create 64;
    committed_mark = Loid.Table.create ();
    verdicts = Hashtbl.create 64;
  }

let verdict_key loid txn = Loid.to_string loid ^ "/" ^ txn

let disks t = t.disks

let find_disk t name = List.find_opt (fun d -> String.equal (Disk.name d) name) t.disks

let entries_ref t loid =
  match Loid.Table.find t.hist loid with
  | Some r -> r
  | None ->
      let r = ref [] in
      Loid.Table.set t.hist loid r;
      r

(* A version file is named "<loid>.v<N>.<ext>" (see [put]); this
   returns the printed LOID and N. A printed LOID never contains ".v",
   so the first ".v" ends it. *)
let parse_version_file file =
  let n = String.length file in
  let rec dot_v i =
    if i + 1 >= n then None
    else if file.[i] = '.' && file.[i + 1] = 'v' then Some i
    else dot_v (i + 1)
  in
  match dot_v 0 with
  | None -> None
  | Some i -> (
      let tail = String.sub file (i + 2) (n - i - 2) in
      match String.index_opt tail '.' with
      | None -> None
      | Some dot ->
          Option.map
            (fun v -> (String.sub file 0 i, v))
            (int_of_string_opt (String.sub tail 0 dot)))

let vfiles_of t owner = Option.value ~default:[] (Hashtbl.find_opt t.vfiles owner)

let set_vfiles t owner = function
  | [] -> Hashtbl.remove t.vfiles owner
  | files -> Hashtbl.replace t.vfiles owner files

(* Newest first; a [put] lands at the head, a re-created older file
   ([put_at] after a prune) in its place. *)
let index_vfile t owner f =
  let rec insert = function
    | g :: rest when g.v >= f.v -> g :: insert rest
    | l -> f :: l
  in
  set_vfiles t owner (insert (vfiles_of t owner))

(* [put_at] and [remove] name a file, not an object: its name gives
   the owner. *)
let index_file t d key =
  match parse_version_file key with
  | Some (owner, v) -> index_vfile t owner { v; disk = d; key }
  | None -> ()

let unindex_file t d key =
  match parse_version_file key with
  | Some (owner, _) ->
      set_vfiles t owner
        (List.filter
           (fun f -> not (f.disk == d && String.equal f.key key))
           (vfiles_of t owner))
  | None -> ()

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
   stays queryable after the bytes are gone. Only the object's own
   files are visited: [t.vfiles] lists them. *)
let prune t ~loid =
  let entries = entries_ref t loid in
  let entry_for v =
    List.find_opt (fun e -> e.History.version = v) !entries
  in
  (* Only plain checkpoint files consume [keep] slots. Transactional
     snapshots live and die by {!protected} alone — otherwise a burst
     of txn writes would evict the Magistrate's newest checkpoint and
     strand the object's activation record. A file with no retained
     entry counts as plain. *)
  let plain_seen = ref 0 in
  let owner = Loid.to_string loid in
  set_vfiles t owner
    (List.filter
       (fun f ->
         let entry = entry_for f.v in
         let drop =
           match entry with
           | Some e when e.History.txn <> None -> not (protected t ~loid e)
           | Some _ | None ->
               incr plain_seen;
               !plain_seen > t.keep
         in
         if drop then begin
           Disk.delete f.disk ~key:f.key;
           Option.iter (fun e -> e.History.available <- false) entry
         end;
         not drop)
       (vfiles_of t owner));
  (* The entry list itself is bounded too: beyond [hist_cap] positions
     (newest first), unprotected entries are forgotten. *)
  let rec cap i = function
    | [] -> []
    | e :: rest ->
        if i < t.hist_cap || protected t ~loid e then e :: cap (i + 1) rest
        else begin
          Hashtbl.remove t.by_file e.History.opa.Opa.file;
          cap (i + 1) rest
        end
  in
  entries := cap 0 !entries

let put ?txn t ~loid blob =
  let disk = List.nth t.disks (t.rr mod List.length t.disks) in
  t.rr <- t.rr + 1;
  t.version <- t.version + 1;
  let owner = Loid.to_string loid in
  let file = Printf.sprintf "%s.v%d.opr" owner t.version in
  Disk.write disk ~key:file blob;
  index_vfile t owner { v = t.version; disk; key = file };
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
  let entry = { History.version = t.version; opa; txn; mark; available = true } in
  entries := entry :: !entries;
  Hashtbl.replace t.by_file file entry;
  (if mark = Committed && t.version > mark_version t ~loid then
     Loid.Table.set t.committed_mark loid t.version);
  prune t ~loid;
  opa

let put_at t (opa : Opa.t) blob =
  match find_disk t opa.Opa.disk with
  | None -> Error (Printf.sprintf "no disk %s in this jurisdiction" opa.Opa.disk)
  | Some d ->
      if not (Disk.exists d ~key:opa.Opa.file) then index_file t d opa.Opa.file;
      Disk.write d ~key:opa.Opa.file blob;
      Ok ()

let get t (opa : Opa.t) =
  match find_disk t opa.Opa.disk with
  | None -> None
  | Some d -> Disk.read d ~key:opa.Opa.file

let remove t (opa : Opa.t) =
  match find_disk t opa.Opa.disk with
  | None -> ()
  | Some d -> (
      Disk.delete d ~key:opa.Opa.file;
      unindex_file t d opa.Opa.file;
      match Hashtbl.find_opt t.by_file opa.Opa.file with
      | Some e when Opa.equal e.History.opa opa -> e.History.available <- false
      | Some _ | None -> ())

let history t ~loid =
  match Loid.Table.find t.hist loid with
  | None -> []
  | Some entries -> List.rev !entries

let history_loids t =
  let ls = Loid.Table.fold (fun l _ acc -> l :: acc) t.hist [] in
  List.sort
    (fun a b -> String.compare (Loid.to_string a) (Loid.to_string b))
    ls

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

let last_committed t ~loid = Loid.Table.find t.committed_mark loid

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

(* Named blobs: small named records (a transaction coordinator's
   write-ahead log) stored beside the version files, overwritten in
   place on the first disk. *)
let put_named t ~name blob =
  Disk.write (List.hd t.disks) ~key:name blob

let get_named t ~name = Disk.read (List.hd t.disks) ~key:name
let remove_named t ~name = Disk.delete (List.hd t.disks) ~key:name

let total_bytes t = List.fold_left (fun acc d -> acc + Disk.bytes_used d) 0 t.disks
let total_files t = List.fold_left (fun acc d -> acc + Disk.file_count d) 0 t.disks
