(* E17 — self-healing replication: the Legion.Replicate kill sweep and
   fenced/unfenced 3/2 split, gated on availability, repair, fencing and
   anti-entropy. *)

open Exp_common
module Replicate = Legion.Replicate

let run () =
  let r = Replicate.run Replicate.default in
  gate (Replicate.violations r);
  write_bench_json ~file:"BENCH_E17.json" (Replicate.to_json r);
  Replicate.print r
