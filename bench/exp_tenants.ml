(* E21 — noisy neighbor under per-tenant quotas and fair queuing
   (§2.4): the Legion.Tenants gate, quiet vs noisy plus a determinism
   re-run. Writes BENCH_E21.json. *)

open Exp_common
module Tenants = Legion.Tenants

let run () =
  let r = Tenants.run Tenants.default in
  Tenants.print r;
  write_bench_json ~file:"BENCH_E21.json" (Tenants.to_json r);
  gate (Tenants.violations r)
