(** Binding Agents (paper §3.6, §4.1): the "legion.binding_agent" unit.

    A Binding Agent binds LOIDs to Object Addresses on behalf of other
    objects. This implementation follows the typical procedure of
    §4.1.2:

    + answer from its own cache when possible (a refresh only with a
      binding other than the stale one);
    + on a miss, for a {e class} target, optionally forward to a parent
      Binding Agent — chains of parents form the k-ary software
      combining tree of §5.2.2 that shields LegionClass;
    + otherwise look the target up through its owner, the class that
      answers for it: for an instance, the class found by zeroing the
      Class Specific field (§4.1.3); for a class, the creator named by
      LegionClass's recorded responsibility pair. The owner's own
      binding comes from the seeded LegionClass binding, the cache, or
      the same lookup — "the process can end when the responsible class
      is LegionClass". The owner is asked once; if its cached binding
      fails to deliver, it is refreshed through the lookup and asked
      once more.

    Every answer is decoded and cached in one place. Methods (§3.6):
    [GetBinding(loid|binding): binding] and
    [InvalidateBinding(loid|binding): unit], whose argument is a
    {!Legion_naming.Binding.request} (the binding form requests a
    refresh of a stale binding, or drops exactly that binding),
    [AddBinding(binding): unit],
    plus [SetParent(opt<address>): unit], [GetStats(): record], and
    [SetPrice(p: int): unit] — §5.2.1's "charge rate": each served
    lookup accrues [p] to the agent's revenue (visible in GetStats),
    the hook for "each object may select its Binding Agent based on its
    charge rate".

    Binding Agents are deliberately self-reliant: they are spawned with
    no Binding Agent of their own and reach classes by cached/seeded
    addresses only. *)

module Impl := Legion_core.Impl
module Value := Legion_wire.Value
module Binding := Legion_naming.Binding
module Address := Legion_naming.Address

val unit_name : string
(** ["legion.binding_agent"]. *)

val state_value :
  ?capacity:int ->
  ?parent:Address.t ->
  ?legion_class:Binding.t ->
  unit ->
  Value.t
(** Initial unit state: the seeded LegionClass binding (the recursion's
    base case — an agent without one can only answer from its cache or
    forward to a parent), an optional parent agent, and a cache capacity
    ([None] = unbounded). All three round-trip through save/restore
    as-is: an unconfigured agent stays unconfigured. *)

val factory : Impl.factory
val register : unit -> unit
