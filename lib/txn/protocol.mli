(** The coordinator's decisions as one pure transition function.

    {!step} takes one transaction's state and one input and returns the
    next state and the actions that follow, in the order they must be
    performed. It performs none of them: {!Coordinator} is the one
    interpreter, against the runtime, the store and the log. The only
    thing {!step} reads is whether this incarnation still owns the log,
    and only where a decision needs it: at the last 2PC vote, before each
    saga step, and at the start of each drive.

    A drive is one pass over the transaction's pending steps: the commit
    or abort fan-out of a 2PC transaction, or the next compensation of a
    saga. One drive at a time carries an open transaction: the
    decision's, then the redrive timer's while acknowledgements are
    missing, or a recovered incarnation's resume. PROTOCOL.md §6c has
    the transition table. *)

module Value := Legion_wire.Value
module Err := Legion_rt.Err
module Event := Legion_obs.Event
module Persistent := Legion_store.Persistent

(** What the coordinator asks of the participant of one step. *)
type request =
  | Prepare  (** [TxnPrepare(txn, meth, args, coordinator)]: a 2PC vote. *)
  | Apply  (** The step's own call, [meth(args)]: a saga step. *)
  | Commit  (** [TxnCommit(txn)]. *)
  | Abort  (** [TxnAbort(txn)]. *)
  | Undo  (** The step's compensation, [cmeth(cargs)]. *)

type input =
  | Begin  (** The transaction was opened and logged [Running]. *)
  | Answer of request * int * (Value.t, Err.t) result
      (** The participant of step [i] answered the request: a vote, a
          saga step's answer, or a commit, abort or compensation
          acknowledgement. A lost request answers an error. *)
  | Redrive  (** The timer armed by {!Arm_redrive} fired. *)
  | Resume of int list
      (** A recovered incarnation adopted the logged record. The list
          holds, ascending, the steps whose participant's history has an
          entry under the transaction: a saga still [Running] compensates
          exactly those. *)

type action =
  | Send of request * int  (** To the participant of step [i]. *)
  | Stage of int
      (** Snapshot that participant's state into the store under the
          transaction. *)
  | Mark of int * Persistent.mark
      (** Snapshot it, then flip its entries under the transaction to the
          mark. *)
  | Resolve of Persistent.mark
      (** Flip every participant's entries under the transaction to the
          mark, and every snapshot still to land. *)
  | Log of Wal.txn  (** Rewrite the transaction's log record. *)
  | Close  (** Drop the finished transaction from the log. *)
  | Emit of Event.kind
  | Reply of (Value.t, Err.t) result  (** Answer the client's [TxnRun]. *)
  | Arm_redrive  (** Feed {!Redrive} after twice the call timeout. *)

type t = {
  txn : Wal.txn;
      (** Its [pending] drops each acknowledged step at once; the log
          catches up at the next {!Log}. *)
  votes : int;  (** 2PC votes received. *)
  veto : string option;  (** The first no vote's reason. *)
  outstanding : int;  (** Requests of the current 2PC drive unanswered. *)
}

val init : Wal.txn -> t
(** A transaction as opened or as recovered from its log record. *)

val step : owner:(unit -> bool) -> t -> input -> t * action list
(** [owner ()] answers whether this incarnation still owns the log. An
    input the phase does not expect changes nothing. *)
