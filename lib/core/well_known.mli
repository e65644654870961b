(** Well-known names of the core Legion objects.

    "Legion defines the interface and functionality of several core
    Abstract class objects" (§2.1.3): LegionObject, LegionClass,
    LegionHost, LegionMagistrate and LegionBindingAgent. They are
    created exactly once, at bootstrap (§4.2.1), with fixed Class
    Identifiers; every other Class Identifier is handed out by
    LegionClass at run time, starting from {!first_dynamic_class_id}. *)

module Loid := Legion_naming.Loid

val first_dynamic_class_id : int64
(** Class Identifiers below this are reserved for the core. *)

val legion_object : Loid.t
val legion_class : Loid.t
val legion_host : Loid.t
val legion_magistrate : Loid.t
val legion_binding_agent : Loid.t

val core_classes : Loid.t list
(** The five, in definition order. *)

(** {1 Counter groups}

    The [kind] strings used to group per-object request counters; the
    §5 experiments aggregate by these. *)

val kind_class : string
val kind_binding_agent : string
val kind_magistrate : string
val kind_host : string
val kind_app : string
val kind_client : string
val kind_sched : string
val kind_context : string

(** {1 Implementation-unit names} *)

val unit_object : string
(** The base unit every object carries ("legion.object"). *)

val unit_class : string
(** The class-machinery unit ("legion.class"). *)

val unit_metaclass : string
(** LegionClass's extra unit ("legion.metaclass"). *)
