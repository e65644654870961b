(** Atomic multi-object invocations: the transaction coordinator.

    Legion has no built-in transactions — the paper leaves cross-object
    consistency to "the objects themselves". This unit is that object:
    a coordinator composed like any other implementation unit, driving
    a set of {!Participant}-bearing objects through either protocol:

    - {b 2PC} ([TxnRun("2pc", steps)]): prepare locks race in parallel;
      a unanimous yes makes the commit decision, which is written to
      the coordinator's write-ahead log {e before} the client learns
      the outcome; commit acknowledgements then drain asynchronously
      and are re-driven until every participant has applied. Any no
      vote — including [Err.Stale_epoch] from a fenced participant,
      which is always an abort vote, never a hang — aborts and releases
      all locks.
    - {b Saga} ([TxnRun("saga", steps)]): steps apply immediately in
      order; a failure at step [i] runs the typed compensations of
      steps [i-1 .. 0] in reverse. Every saga step must carry a
      compensation method.

    Durability rides the Jurisdiction store named by [Configure]. The
    write-ahead log ({!Wal}) is a set of named blobs
    ({!Legion_store.Persistent.put_named}): an owner key holding the
    fencing epoch, a head holding the sequence counter and the open
    ids, and one record per open transaction, rewritten on that
    transaction's own state changes and removed when it finishes. Each
    participant's state is snapshotted into the store's per-LOID
    version history tagged with the transaction id — first [Staged] at
    prepare/apply, then flipped [Committed]/[Compensated] as the
    outcome lands. The E20 checker proves atomicity from these
    histories alone.

    Every decision is {!Protocol.step}, a pure transition function;
    this unit performs the actions it returns. One drive at a time
    carries an open transaction to its end: the decision's, then the
    redrive timer's while acks are missing, or a recovered
    incarnation's resume. Across coordinator crashes a transaction
    counts [committed] or [aborted] and traces [Txn_commit] once. Not
    under split brain: a fenced predecessor that is still running and
    receives the last commit ack finishes the transaction too, so both
    incarnations count it.

    Crash recovery: {!register} hooks [TxnResume] into
    {!Legion_core.Impl.register_resume}, so the responsible class
    invokes it after reactivating a crashed coordinator. Presumed
    abort: a durable [Committing] record resumes toward commit
    (committed work is never rolled back — [Resume] trace decision
    ["commit"]); anything still [Running] aborts; a saga compensates
    exactly the steps the store history proves applied. A log that
    does not read (a head that does not decode, a listed record
    missing or undecodable) is never taken for an empty one: until a
    fold succeeds, [TxnRun], [TxnStatus], [TxnStats] and [TxnResume]
    answer [Err.Internal "corrupt transaction WAL"] and nothing writes
    the log.

    Methods: [Configure {store}] (a store no Jurisdiction registered
    answers [Err.Bad_args]), [TxnRun(mode, steps)] (step records:
    [dst], [meth], [args], [cmeth], [cargs]; participants must be
    distinct; a field of the wrong type answers [Err.Bad_args]),
    [TxnResume()], [TxnStatus(txn)] (the authoritative
    phase, ["unknown"] for a forgotten or never-seen id — how a
    reactivated participant re-validates a resurrected prepare lock),
    [TxnStats()] (committed / aborted / compensations / resumed /
    indoubt counters). *)

val unit_name : string
(** ["legion.txn.coord"]. *)

val factory : Legion_core.Impl.factory

val register : unit -> unit
(** Register the factory and the [TxnResume] crash-recovery hook. *)
