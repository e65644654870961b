(** Scheduling Agents.

    "Scheduling is intentionally left out of the core object model,
    except for a few hooks" (§3.7): the class logical table carries a
    Scheduling Agent LOID per object, and Magistrates consult that agent
    when placing an activation. "Complex scheduling policies are
    intended to be implemented outside of the Magistrate in Scheduling
    Agents" (§3.8).

    A Scheduling Agent answers one method:
    [PickHost(candidates: list<record{host: loid, load: int}>): loid].

    Four policies ship as distinct implementation units, so sites can
    pick per class or per object:
    - ["legion.sched.random"] — uniform choice;
    - ["legion.sched.round_robin"] — cycles through candidates;
    - ["legion.sched.least_loaded"] — minimum reported load, ties
      broken by list order;
    - ["legion.sched.live_load"] — polls each candidate Host Object's
      [GetState] (short-timeout probes) and places on the host with the
      fewest live processes. Probe failures and undecodable replies are
      announced with [ProbeFail] events, and unanswered candidates keep
      competing with their Magistrate-supplied (stale) counts, so the
      choice always compares the full candidate list. Accurate under
      churn, at one RPC fan-out per placement.

    A fifth unit, ["legion.sched.rebalance"], is not a picker but an
    autonomic rebalancer (§3.8 "complex scheduling policies … in
    Scheduling Agents"): [Configure] it with the Jurisdictions to
    supervise — [{magistrates: list{mag, site}, spares: list{mag,
    site}, hot_calls: int, split_objects: int}] — then
    [StartRebalance(period, until)] wakes it every [period] virtual
    seconds to (a) [Move] application objects whose fresh per-period
    demand clears [hot_calls] toward their dominant caller site
    (infrastructure — classes, Magistrates, agents — is never moved;
    classes shed load by cloning instead), and (b) split any
    Jurisdiction holding more than [split_objects] objects by
    transferring half to a spare Magistrate on the same site (emitting
    a [Split] event). Spare Magistrates must share the site's storage
    (the §2.2 non-disjoint case). *)

val unit_random : string
val unit_round_robin : string
val unit_least_loaded : string
val unit_live_load : string
val unit_rebalance : string

val register : unit -> unit
(** Install all five units. *)
