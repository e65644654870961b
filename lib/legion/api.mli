(** Synchronous convenience layer over the asynchronous runtime.

    Method invocation in Legion is non-blocking (§2); tests, examples
    and benchmarks, however, read much better in a blocking style. [sync]
    starts an asynchronous operation and drives the simulation until its
    continuation fires, returning the result — the moral equivalent of
    a user program blocking on a future. *)

module Loid := Legion_naming.Loid
module Binding := Legion_naming.Binding
module Value := Legion_wire.Value
module Runtime := Legion_rt.Runtime

exception Call_failed of string
(** Raised by the [_exn] helpers, with a rendered {!Legion_rt.Err.t}. *)

val sync : System.t -> (('a -> unit) -> unit) -> 'a
(** [sync t start] runs [start k], then the simulation, until [k] has
    been called. @raise Failure if the simulation quiesces without the
    continuation firing (a protocol bug). *)

val call :
  System.t ->
  Runtime.ctx ->
  dst:Loid.t ->
  meth:string ->
  args:Value.t list ->
  Runtime.reply
(** One blocking method invocation through the full communication
    layer (cache, Binding Agent, rebind-retry). *)

val call_exn :
  System.t ->
  Runtime.ctx ->
  dst:Loid.t ->
  meth:string ->
  args:Value.t list ->
  Value.t

(** {1 Object and class lifecycle} *)

val create_object :
  System.t ->
  Runtime.ctx ->
  cls:Loid.t ->
  ?init:(string * Value.t) list ->
  ?eager:bool ->
  ?magistrate:Loid.t ->
  ?host:Loid.t ->
  ?sched:Loid.t ->
  ?candidates:Loid.t list ->
  ?public_key:string ->
  unit ->
  (Loid.t * Binding.t option, Legion_rt.Err.t) result
(** Invoke [Create] on a class. [init] maps implementation-unit names
    to initial states. [eager] activates immediately (default false —
    the object starts Inert and activates on first reference).
    [candidates] seeds the Fig. 16 Candidate Magistrate List: fallback
    Magistrates the class may consult when the current ones fail.
    [public_key] fills the LOID's §3.2 key field; the key is part of the
    object's identity, so a reference quoting a wrong key resolves
    nowhere. *)

val create_object_exn :
  System.t ->
  Runtime.ctx ->
  cls:Loid.t ->
  ?init:(string * Value.t) list ->
  ?eager:bool ->
  ?magistrate:Loid.t ->
  ?host:Loid.t ->
  ?sched:Loid.t ->
  ?candidates:Loid.t list ->
  ?public_key:string ->
  unit ->
  Loid.t

val derive_class :
  System.t ->
  Runtime.ctx ->
  parent:Loid.t ->
  name:string ->
  ?units:string list ->
  ?idl:string ->
  ?mpl:string ->
  ?abstract:bool ->
  ?private_:bool ->
  ?fixed:bool ->
  ?typed:bool ->
  ?kind:string ->
  ?magistrate:Loid.t ->
  unit ->
  (Loid.t, Legion_rt.Err.t) result
(** Invoke [Derive] on a class; the new class object is activated
    eagerly. The interface source is [idl] or [mpl], but not both. Each
    accepts either of the paper's two IDLs — a CORBA-flavoured
    [interface] or an MPL [mentat class] — since one parser reads both.
    Both arguments stay because each fills its own field of the Derive
    spec, and dropping a field would shrink every Derive message.
    [typed] makes instances enforce the class interface at dispatch. *)

val derive_class_exn :
  System.t ->
  Runtime.ctx ->
  parent:Loid.t ->
  name:string ->
  ?units:string list ->
  ?idl:string ->
  ?mpl:string ->
  ?abstract:bool ->
  ?private_:bool ->
  ?fixed:bool ->
  ?typed:bool ->
  ?kind:string ->
  ?magistrate:Loid.t ->
  unit ->
  Loid.t

val delete_object :
  System.t -> Runtime.ctx -> cls:Loid.t -> loid:Loid.t ->
  (unit, Legion_rt.Err.t) result
(** Invoke [Delete] on the owning class: active and inert copies are
    removed everywhere; later references fail definitively (§3.8). *)

val inherit_from :
  System.t -> Runtime.ctx -> cls:Loid.t -> base:Loid.t ->
  (unit, Legion_rt.Err.t) result
(** Invoke [InheritFrom] — run-time multiple inheritance (§2.1.1). *)

val get_interface :
  System.t -> Runtime.ctx -> cls:Loid.t ->
  (Legion_idl.Interface.t, Legion_rt.Err.t) result

val get_binding :
  System.t -> Runtime.ctx -> via:Loid.t -> target:Loid.t ->
  (Binding.t, Legion_rt.Err.t) result
(** Ask [via] (a class or a Binding Agent) to bind [target]. *)
