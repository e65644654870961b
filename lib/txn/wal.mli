(** The transaction coordinator's write-ahead log: its transaction
    records and their durable layout.

    The log is a set of named blobs ({!Legion_store.Persistent.put_named})
    in the coordinator's Jurisdiction store:

    - the {e owner key} [wal.<loid>.owner]: the epoch of the newest
      incarnation that has written the log, the fencing token against
      coordinator split-brain. An incarnation writes it once, before its
      first other write, and only when the stored epoch is missing or
      lower than its own;
    - the {e head} [wal.<loid>]: the sequence counter and the ids of the
      open transactions, oldest first. It is rewritten when a
      transaction opens or finishes, and when recovery claims the log;
    - one {e record} per open transaction, [wal.<loid>/<txn id>]: the
      transaction's mode, phase, pending steps and step list, rewritten
      on its own state changes and removed when it finishes.

    A state change therefore encodes one transaction and the owner check
    reads one 9-byte blob; only head writes grow with the open set. An
    incarnation that finds a newer owner writes nothing. *)

module Value := Legion_wire.Value
module Loid := Legion_naming.Loid
module Persistent := Legion_store.Persistent

(** {1 Transactions} *)

type mode = Two_phase | Saga

val mode_of_string : string -> (mode, string) result
(** ["2pc"] or ["saga"]. *)

type phase = Running | Committing | Committed | Compensating | Compensated

val phase_to_string : phase -> string

type step = {
  dst : Loid.t;
  meth : string;
  args : Value.t list;
  cmeth : string;  (** Typed compensation (saga mode); [""] = none. *)
  cargs : Value.t list;
}

val step_of_value : Value.t -> (step, string) result
(** A [TxnRun] step record: [dst], [meth], [args], [cmeth], [cargs].
    [args], [cmeth] and [cargs] may be absent ([[]], [""], [[]]); one
    present with the wrong type is an error. *)

type txn = {
  id : string;
  mode : mode;
  steps : step array;
  phase : phase;
  pending : int list;
      (** Running/saga: step indices not yet applied (ascending).
          Committing: indices whose commit ack is outstanding.
          Compensating: indices still to roll back (saga: reverse
          application order). *)
}

val txn_to_value : txn -> Value.t
val txn_of_value : Value.t -> (txn, string) result

(** {1 The log} *)

type t
(** One coordinator incarnation's handle on its log: the epoch it
    writes under and, in memory, what its head holds (the sequence
    counter and the open ids). *)

val create : Loid.t -> epoch:int -> (unit -> Persistent.t option) -> t
(** The log of the coordinator with this LOID, written by the
    incarnation with this epoch into whatever store the function names
    at the time of each operation; [None] makes every write a no-op. *)

val head_key : Loid.t -> string
(** [wal.<loid>]; the owner key is named after it. *)

val record_key : Loid.t -> string -> string
(** The record of the transaction with this id. *)

val am_owner : t -> bool
(** No newer incarnation has written the log (also true when there is
    no store, or no owner key yet). A [false] answer means the
    incarnation must neither write, decide, drive nor mark: its
    successor owns every in-doubt transaction. *)

val open_txn : t -> seq:int -> txn -> unit
(** Add the transaction to the open set and log it; [seq] is the
    sequence counter after minting its id. *)

val update : t -> txn -> unit
(** Log a state change of an open transaction: rewrites its record
    only. *)

val finish : t -> txn -> unit
(** Drop a transaction that reached [Committed] or [Compensated] from
    the open set and the log. *)

val recover : t -> ((int * txn list) option, string) result
(** Read the log: the head's sequence counter and the records it lists,
    oldest first. [Ok None] when there is no log (no store, or no
    head). [Error] when the head does not decode, a listed record is
    missing, or a record does not decode. Reads only. *)

val adopt : t -> txn -> unit
(** Add a recovered transaction to the open set, without writing. *)

val claim : t -> seq:int -> unit
(** Rewrite the head with this sequence counter and the open set, so
    that every older incarnation is fenced from this point on. *)

val open_count : t -> int
(** Transactions opened or adopted and not yet finished. *)
