(** The class-machinery implementation unit ("legion.class").

    A Legion class object is an object that carries this unit. It
    provides the class-mandatory member functions (§2.1, §3.7):

    - [Create(init_states: record, hints: record): record] — instantiate
      (the {e is-a} relation). Refused on Abstract classes.
    - [Derive(spec: record): record] — create a subclass (the
      {e kind-of} relation). Refused on Private classes.
    - [InheritFrom(base: loid): unit] — add a base class's methods to
      future instances (the {e inherits-from} relation). Refused on
      Fixed classes.
    - [Delete(obj: loid): unit], [GetBinding(loid|binding): binding],
      [GetInterface(): any], plus bookkeeping methods.

    The unit maintains the {e logical table} of Fig. 16: one row per
    created instance or subclass, holding Object Address, Current
    Magistrate List, Scheduling Agent and Candidate Magistrate List.
    [GetBinding] answers from the table when the Object Address is
    known, and otherwise consults a Current Magistrate via [Activate] —
    "referring to the LOID of an Inert object can cause the object to be
    activated" (§4.1.2). [Clone()] implements the hot-class relief of
    §5.2.2.

    Hints accepted by [Create]: [magistrate: opt<loid>],
    [host: opt<loid>] (forwarded to the Magistrate), [eager: bool]
    (activate immediately; default false), [sched: opt<loid>],
    [candidates: list<loid>]. Reply: [{loid: loid, binding: opt<binding>}].

    Spec fields of [Derive]: [name: str], [units: list<str>] (new
    implementation units, highest precedence), [idl: opt<str>] or
    [mpl: opt<str>] (the source of the additional interface, at most
    one of the two; each is read by {!Legion_idl.Parser.interface}, so
    either takes either syntax, and a parse error names its field),
    [abstract/private/fixed: bool] (default false), [class_units:
    list<str>] (extra units for the class object itself), [kind:
    opt<str>], [magistrate: opt<loid>], [eager: bool] (default true —
    classes stay active, §5.2).
    Reply: [{loid: loid, binding: opt<binding>}]. *)

module Value := Legion_wire.Value
module Loid := Legion_naming.Loid
module Interface := Legion_idl.Interface

val unit_name : string

type flags = { abstract : bool; private_ : bool; fixed : bool }

val init_state :
  ?interface:Interface.t ->
  ?instance_units:string list ->
  ?instance_kind:string ->
  ?instance_cache_capacity:int ->
  ?superclass:Loid.t ->
  ?flags:flags ->
  ?default_magistrates:Loid.t list ->
  ?default_scheduler:Loid.t ->
  ?binding_policy:Legion_sec.Policy.t ->
  class_id:int64 ->
  unit ->
  Value.t
(** Initial unit state for a class object's OPR. [instance_units]
    defaults to [[Well_known.unit_object]]; [instance_kind] to
    {!Well_known.kind_app}; [interface] to an empty interface named
    ["class<id>"]. [binding_policy] (default [Allow_all]) is the MayI
    judged on the class's binding path: a [Create] or [GetBinding]
    whose environment the policy denies is answered [Err.Denied] — the
    caller never receives a binding. Derived classes (and autonomic
    clones) inherit the parent's policy; [SetBindingPolicy(policy)]
    replaces it at runtime, gated by the policy being replaced. *)

val factory : Impl.factory
val register : unit -> unit
