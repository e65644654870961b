(** Jurisdiction storage: Object Persistent Addresses over a disk set.

    "An Object Persistent Address will typically be a file name, and
    will only be meaningful within the Jurisdiction in which it
    resides" (§3.1.1). [Opa.t] is (disk name, file name); a
    [Persistent.t] stripes writes across its disks round-robin.

    The store also keeps a pruned-but-queryable {e version history} per
    LOID: every [put] appends an entry recording the version, its
    address, and the transaction (if any) that wrote it. File pruning
    still bounds bytes on disk, but entries survive their files (marked
    unavailable), so atomicity audits ({!history}) and event-sourced
    restores ({!rewind_to}) work over the full retained window.

    The store indexes version files by the printed LOID their names
    start with, and history entries by file, so a write, a prune or a
    {!remove} touches only the object's own files and entries: its cost
    does not grow with the number of files in the Jurisdiction. *)

module Value := Legion_wire.Value

module Opa : sig
  type t = { disk : string; file : string }

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_value : t -> Value.t
  val of_value : Value.t -> (t, string) result
end

type mark =
  | Applied  (** A plain (non-transactional) store or checkpoint. *)
  | Staged
      (** Written under a transaction whose outcome is not yet known;
          never pruned while in this state. *)
  | Committed  (** The owning transaction committed. *)
  | Compensated
      (** The owning transaction aborted and this write was rolled back
          (2PC lock released or saga compensation applied). *)

val mark_name : mark -> string
(** ["applied"] / ["staged"] / ["committed"] / ["compensated"]. *)

module History : sig
  type entry = {
    version : int;  (** Store-wide monotone version number. *)
    opa : Opa.t;
    txn : string option;  (** Writing transaction id, if any. *)
    mutable mark : mark;
    mutable available : bool;
        (** [false] once the version file was pruned; the entry remains
            queryable but not {!rewind_to}-able. *)
  }
end

type t

val create : ?keep:int -> ?hist_cap:int -> disks:Disk.t list -> unit -> t
(** [keep] bounds how many {e plain} (non-transactional) version files
    survive per LOID (default 2: the newest plus its predecessor, so an
    address handed out just before a re-store stays readable).
    Transactional snapshots never consume [keep] slots — they are
    retained while staged (in doubt) or while holding the newest
    committed version, and their files are dropped as soon as they are
    neither. [hist_cap] (default 64) bounds the retained history
    entries per LOID; protected transactional entries are never dropped
    by either bound.
    @raise Invalid_argument on an empty disk list, [keep < 1], or
    [hist_cap < 1]. *)

val disks : t -> Disk.t list

val put : ?txn:string -> t -> loid:Legion_naming.Loid.t -> string -> Opa.t
(** Store a blob for an object: writes a fresh version file and returns
    its address, then prunes older versions of the same LOID beyond the
    configured [keep] — repeated stores (periodic checkpoints) keep
    [total_files]/[total_bytes] bounded instead of leaking every
    superseded version. With [?txn] the new history entry is tagged
    with that transaction id and enters [Staged]; resolve it later with
    {!mark_txn}. If the transaction was already resolved for this
    object, the entry inherits the verdict directly (a late snapshot
    must not read as a partial commit). *)

val put_at : t -> Opa.t -> string -> (unit, string) result
(** Overwrite a specific address (re-storing at a known OPA). Fails if
    the disk is not part of this store. Bypasses the history: the entry
    that minted the OPA keeps describing it. *)

val get : t -> Opa.t -> string option
val remove : t -> Opa.t -> unit

(** {1 Version history} *)

val history : t -> loid:Legion_naming.Loid.t -> History.entry list
(** All retained entries for the object, oldest first. *)

val history_loids : t -> Legion_naming.Loid.t list
(** Every LOID with retained history, sorted by string form — a
    deterministic iteration order for audits. *)

val mark_txn :
  t -> loid:Legion_naming.Loid.t -> txn:string -> mark -> unit
(** Resolve every still-staged entry the transaction wrote for this
    object. Resolution is one-way: already resolved entries are left
    alone, so a redriven outcome is idempotent and a contradictory one
    cannot flip a verdict. Marking [Committed] advances the object's
    committed watermark (see {!last_committed}) and may release
    entries/files the pruner was holding for the in-doubt window. *)

val last_committed : t -> loid:Legion_naming.Loid.t -> int option
(** Version of the newest committed transactional write, if any. *)

val rewind_to :
  t -> loid:Legion_naming.Loid.t -> version:int -> (Opa.t, string) result
(** Event-sourced restore: re-store the blob of a historical version as
    the newest version (the history is append-only; nothing is
    rewritten) and return the fresh address. Fails if the version is
    unknown, or its file was pruned. *)

(** {1 Named blobs}

    Small named records stored beside the version files — the
    transaction coordinator's write-ahead log. Overwritten in place on
    a fixed disk and excluded from version pruning. A coordinator keeps
    two of them (its owner key and its log head) plus one per open
    transaction, removed when the transaction finishes. *)

val put_named : t -> name:string -> string -> unit
val get_named : t -> name:string -> string option
val remove_named : t -> name:string -> unit

val total_bytes : t -> int
val total_files : t -> int
