(** Transaction participant: the prepare-lock side of {!Coordinator}.

    Composed into any object (alongside its application units) to make
    it enlistable in an atomic multi-object invocation. The unit holds
    at most one {e prepare lock}: a staged (method, args) pair promised
    to a transaction. Votes follow 2PC:

    - [TxnPrepare(txn, meth, args[, coord])] — stage the call and vote
      yes ([Ok Unit]). Votes no with [Err.Refused] when the method is
      not in the composite's repertoire. Only the name is checked: a
      call whose arguments the method rejects votes yes and fails at
      commit, after which the coordinator's redrive finds no lock, is
      acknowledged, and the transaction commits with this participant
      unchanged. Votes no with the {e retryable} [Err.Txn_locked] when
      another transaction holds the lock — contention is shed exactly
      like overload, and clears when the holder resolves. A duplicate
      prepare under the holding transaction is an idempotent yes. The
      optional fourth argument is the coordinator's LOID, remembered in
      the lock for crash-recovery ([TxnVerify]).
    - [TxnCommit(txn)] — release the lock, then apply the staged method
      through the object's own composite (so guards and application
      logic run normally). Idempotent: with no lock under [txn] it
      acknowledges without applying (retransmission, or an abort that
      raced ahead).
    - [TxnAbort(txn)] — drop the lock if held under [txn]; always
      acknowledges.
    - [TxnHeld()] — the holder as an optional ([List []] /
      [List [Str txn]]); the E20 orphaned-lock probe.

    - [TxnVerify()] — crash-recovery for the lock (invoked
      automatically after reactivation, via the resume hook): a
      restored lock may belong to a transaction that finished while
      the checkpoint aged. The participant asks the lock's coordinator
      ([TxnStatus]) and resolves accordingly — applies a decided
      commit, releases a rolled-back or forgotten one, and leaves an
      undecided vote standing. Returns [Int 1] when the lock was
      resolved, [Int 0] otherwise.

    The lock is part of the unit's saved state, so a checkpointed
    in-doubt participant restores still locked and the coordinator's
    recovery re-drive finds it where it left off. *)

val unit_name : string
(** ["legion.txn.participant"]. *)

val factory : Legion_core.Impl.factory
val register : unit -> unit
