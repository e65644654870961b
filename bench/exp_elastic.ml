(* E19 — elastic load management under a Zipf flash crowd (§3.8,
   §5.2.2): the Legion.Elastic gate, baseline vs armed plus a
   determinism re-run. Writes BENCH_E19.json. *)

open Exp_common
module Elastic = Legion.Elastic

let run () =
  let r = Elastic.run Elastic.default in
  Elastic.print r;
  write_bench_json ~file:"BENCH_E19.json" (Elastic.to_json r);
  gate (Elastic.violations r)
