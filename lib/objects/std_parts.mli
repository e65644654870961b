(** A standard library of application implementation units.

    The paper motivates Legion with shared files and data, wide-area
    applications, and cooperating objects; these units are the
    ready-made building blocks for exactly those programs. Each is an
    ordinary {!Legion_core.Impl} unit: derive a class carrying it (plus
    ["legion.object"]), create instances, and the objects deactivate,
    migrate and replicate like everything else — all state round-trips
    through SaveState/RestoreState.

    {2 Counter ("legion.std.counter")}

    The canonical minimal stateful object, shared by the experiments,
    the CLI and the tests:
    - [Increment(d: int): int] — adds [d], returns the new value
    - [Get(): int]
    - [Reset(): unit]

    {2 Serial counter ("legion.std.serial_counter")}

    The same counter behind a serial server: one request at a time, a
    fixed service time each, replies deferred to completion — the
    bottleneck object of the overload experiments. Register it with
    {!register_serial_counter}, which fixes the service time.

    {2 Worker ("legion.std.worker")}

    A service with a duration: [Work(d: float): int] replies [d]
    virtual seconds later (with the number of calls served so far),
    holding an admission slot meanwhile — the workload object of the
    elasticity (E19) and noisy-neighbor (E21) scenarios.

    {2 File ("legion.std.file")}

    A versioned byte container (the "remote files and data" of §1):
    - [Read(): record{data: str, version: int}]
    - [Write(s: str): int] — replaces contents, returns new version
    - [Append(s: str): int]
    - [Size(): int]

    {2 Key-value store ("legion.std.kv")}

    A string-keyed map of values:
    - [Put(key: str, v: any): unit]
    - [GetKey(key: str): any] — [Not_bound] when absent
    - [DeleteKey(key: str): bool] — was it present?
    - [Keys(): list<str>]
    - [Count(): int]

    {2 Queue ("legion.std.queue")}

    A FIFO of values (work distribution between producers/consumers):
    - [Push(v: any): int] — new length
    - [Pop(): any] — [Not_bound] when empty
    - [Peek(): any] — [Not_bound] when empty
    - [Length(): int]

    {2 Barrier ("legion.std.barrier")}

    An n-party synchronization point for parallel phases (§1's "parallel
    processing" support). Arrivals before the barrier is full get their
    reply {e deferred} — the non-blocking method model lets the object
    hold the continuation until the last party arrives, when every
    waiter is released with the arrival count:
    - [Configure(parties: int): unit] — resets the barrier
    - [Arrive(): int] — replies only when all parties have arrived
    - [Waiting(): int]

    Deferred continuations are runtime state, not object state: parties
    waiting at a barrier that is deactivated are released with an error
    by their own call timeouts, and the barrier restarts empty — the
    honest semantics of a crash mid-phase.

    Because [Arrive] blocks until the phase completes, callers must
    raise their per-call deadline ([Runtime.invoke ~timeout]) above the
    expected phase length: with the default deadline, the communication
    layer would declare the deferred reply lost and {e retry}, arriving
    twice.

    {2 Lock ("legion.std.lock")}

    A mutex whose [Acquire] defers its reply while the lock is held —
    the same deferred-continuation technique as the barrier, with the
    same deadline caveat:
    - [Acquire(): unit] — replies when the lock is granted
    - [Release(): unit] — [Refused] unless the caller (by Calling
      Agent) holds the lock; grants to the next waiter FIFO
    - [Holder(): loid] — [Not_bound] when free
    - [QueueLength(): int]

    The holder and wait queue are runtime state: deactivating a lock
    releases it (waiters see their own timeouts), which is the honest
    crash semantics for a lock service without leases.

    {2 Tuple space ("legion.std.tspace")}

    A Linda-style coordination space — the canonical 1990s distributed
    programming substrate, and a natural fit for Legion's deferred
    replies:
    - [Out(tuple: list<any>): unit] — deposit a tuple
    - [Rd(pattern: list<any>): list<any>] — read a matching tuple
      (non-destructive); defers until one exists
    - [In(pattern: list<any>): list<any>] — take a matching tuple
      (destructive); defers until one exists
    - [TryRd(pattern)/TryIn(pattern)] — non-blocking variants,
      [Not_bound] when nothing matches
    - [Size(): int]
    - [Flush(): int] — drop every tuple (returning how many) and
      release every parked waiter with a refusal: the clean-shutdown
      path for dismissing idle workers

    Patterns match tuples element-wise and must have the same length;
    the wildcard [Str "_"] matches any element ("formal"), anything
    else matches by equality ("actual"). Deposited tuples persist
    through deactivation; pending [In]/[Rd] continuations do not (same
    caveat as the lock). *)

val counter_unit : string
val serial_counter_unit : string
val file_unit : string
val kv_unit : string
val queue_unit : string
val barrier_unit : string
val lock_unit : string
val tspace_unit : string

val register : unit -> unit
(** Install the counter, file, kv, queue, barrier, lock and tuple-space
    units in the {!Legion_core.Impl} registry. *)

val register_counter : unit -> unit

val register_serial_counter : service:float -> unit
(** Install the serial counter with a [service]-second service time,
    replacing any earlier registration. *)

val counter_idl : string
(** [Increment] and [Get]; [Reset] is implemented but undeclared. *)

val worker_unit : string
val worker_idl : string
val register_worker : unit -> unit

val file_idl : string
val kv_idl : string
val queue_idl : string
val barrier_idl : string
val lock_idl : string
val tspace_idl : string
(** IDL sources matching each unit, ready for typed Derive calls. *)
