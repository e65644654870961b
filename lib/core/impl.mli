(** Implementation units and composite object behaviours.

    A Legion object's behaviour is the composition of named
    {e implementation units} — the runtime analogue of the "executables"
    that Object Persistent Representations name (§4.2). Multiple
    inheritance (§2.1.1) composes units in precedence order: when a
    method name is provided by several units, the earliest unit wins.

    The composite behaviour natively provides the object-mandatory state
    machinery: [SaveState] (returns the per-unit state record that goes
    into an OPR), [RestoreState], and [GetMethodNames]. Everything else
    — including [MayI] — comes from units; the composite consults the
    first unit exposing a {e guard} before dispatching, which is how
    "Legion will invoke the known member functions to define and enforce
    security" (§2.4). *)

module Value := Legion_wire.Value
module Loid := Legion_naming.Loid
module Env := Legion_sec.Env
module Policy := Legion_sec.Policy
module Runtime := Legion_rt.Runtime
module Err := Legion_rt.Err

type meth =
  Runtime.ctx -> Value.t list -> Env.t -> (Runtime.reply -> unit) -> unit
(** One method implementation. Must eventually call the continuation
    exactly once. *)

type part = {
  part_name : string;  (** The unit's registered name. *)
  find : string -> meth option;
  method_names : string list;
  save : unit -> Value.t;  (** Snapshot this unit's state. *)
  restore : Value.t -> (unit, string) result;
  guard :
    (meth:string -> args:Value.t list -> env:Env.t -> Policy.decision) option;
      (** Admission control; the composite requires every unit's guard
          to admit a call (conjunction), so orthogonal controls — MayI
          policy, IDL conformance — compose. *)
}

val part :
  ?methods:(string * meth) list ->
  ?save:(unit -> Value.t) ->
  ?restore:(Value.t -> (unit, string) result) ->
  ?guard:(meth:string -> args:Value.t list -> env:Env.t -> Policy.decision) ->
  string ->
  part
(** Convenience constructor; defaults: no methods, [Unit] state, accept
    any restore, no guard. *)

type factory = Runtime.ctx -> part
(** Units are instantiated per activation, with the object's context in
    scope (so methods can [invoke] other objects as the object itself). *)

(** {1 The unit registry}

    The registry plays the role of the executable search path: OPRs name
    units; activation resolves the names here. *)

val register : string -> factory -> unit
(** Last registration for a name wins (supports test overrides). *)

val registered_units : unit -> string list

val register_resume : unit_name:string -> meth:string -> unit
(** Declare that instances composed from [unit_name] carry in-doubt
    durable work: after crash-recovery reactivates such an instance,
    the responsible class invokes [meth] on it (fire-and-forget) so the
    unit can re-drive from its own write-ahead state. The transaction
    coordinator registers [TxnResume] here. Last registration for a
    unit name wins. *)

val resume_method_for : string list -> string option
(** The resume method of the first listed unit that registered one. *)

(** {1 Composition and activation} *)

val compose : parts:part list -> Runtime.handler
(** Build the dispatch loop over the given parts (precedence order). *)

val activate :
  Legion_rt.Runtime.t ->
  host:Legion_net.Network.host_id ->
  loid:Loid.t ->
  Opr.t ->
  (Runtime.proc, string) result
(** Bring an OPR to life on a host: spawn the process, instantiate each
    named unit, restore saved states, and install the composite
    handler. Fails (spawning nothing) if a unit is unregistered or a
    state fails to restore. *)

(** {1 Reply helpers used across unit implementations} *)

val ok_unit : Runtime.reply
val bad_args : (Runtime.reply -> unit) -> string -> unit
