module Loid = Legion_naming.Loid
module Env = Legion_sec.Env

type budget = {
  weight : int;
  max_inflight : int;
  rate : float;
  burst : float;
}

(* Weight 1, everything else unlimited: the shape the fallback lane and
   freshly registered tenants start from. *)
let default_budget = { weight = 1; max_inflight = 0; rate = 0.0; burst = 0.0 }

type tenant = {
  name : string;
  budget : budget;
  mutable tokens : float;  (* current token-bucket level *)
  mutable refilled : float;  (* virtual time of the last refill *)
  mutable inflight : int;  (* admitted calls not yet replied, registry-wide *)
  mutable admitted : int;
  mutable shed : int;
}

type t = {
  by_responsible : tenant Loid.Table.t;
  by_name : (string, tenant) Hashtbl.t;  (* lookup only, never iterated *)
  fallback : tenant;
  mutable names : string list;  (* registration order, newest first *)
}

let fallback_name = "~unregistered"

let make_tenant ~name budget =
  {
    name;
    budget;
    tokens = budget.burst;
    refilled = 0.0;
    inflight = 0;
    admitted = 0;
    shed = 0;
  }

let create () =
  {
    by_responsible = Loid.Table.create ();
    by_name = Hashtbl.create 16;
    fallback = make_tenant ~name:fallback_name default_budget;
    names = [];
  }

let register t ~name ~responsible ?(weight = 1) ?(max_inflight = 0)
    ?(rate = 0.0) ?burst () =
  if name = "" then invalid_arg "Tenant.register: empty name";
  let burst =
    match burst with
    | Some b -> Float.max 1.0 b
    | None -> Float.max 1.0 (0.25 *. rate)
  in
  let budget = { weight = max 1 weight; max_inflight; rate; burst } in
  let tenant =
    match Hashtbl.find_opt t.by_name name with
    | Some existing -> existing (* re-registration: keep counters, new loid *)
    | None ->
        let fresh = make_tenant ~name budget in
        Hashtbl.replace t.by_name name fresh;
        t.names <- name :: t.names;
        fresh
  in
  Loid.Table.set t.by_responsible responsible tenant;
  tenant

let of_env t (env : Env.t) =
  match Loid.Table.find t.by_responsible env.Env.responsible with
  | Some tenant -> tenant
  | None -> t.fallback

let tenants t = List.rev t.names

let name tenant = tenant.name
let weight tenant = tenant.budget.weight
let budget tenant = tenant.budget
let inflight tenant = tenant.inflight
let admitted tenant = tenant.admitted
let shed_count tenant = tenant.shed

(* --- token bucket (virtual time; deterministic) --- *)

let refill tenant ~now =
  if tenant.budget.rate > 0.0 && now > tenant.refilled then begin
    tenant.tokens <-
      Float.min tenant.budget.burst
        (tenant.tokens +. ((now -. tenant.refilled) *. tenant.budget.rate));
    tenant.refilled <- now
  end

let try_take tenant ~now =
  if tenant.budget.rate <= 0.0 then true
  else begin
    refill tenant ~now;
    if tenant.tokens >= 1.0 then begin
      tenant.tokens <- tenant.tokens -. 1.0;
      true
    end
    else false
  end

let retry_hint tenant ~now =
  if tenant.budget.rate <= 0.0 then 0.0
  else begin
    refill tenant ~now;
    Float.max 1e-3 ((1.0 -. tenant.tokens) /. tenant.budget.rate)
  end

(* --- inflight budget --- *)

let inflight_ok tenant =
  tenant.budget.max_inflight <= 0 || tenant.inflight < tenant.budget.max_inflight

let begin_call tenant =
  tenant.inflight <- tenant.inflight + 1;
  tenant.admitted <- tenant.admitted + 1

let end_call tenant = tenant.inflight <- max 0 (tenant.inflight - 1)
let note_shed tenant = tenant.shed <- tenant.shed + 1
