(* E16 — overload: the Legion.Overload saturation sweep, baseline and
   protected, gated on protected goodput and p99 past the knee and on
   the baseline's collapse. *)

open Exp_common
module Overload = Legion.Overload

let run () =
  let r = Overload.run Overload.default in
  Overload.print r;
  gate (Overload.violations r);
  Printf.printf
    "gates: goodput floor 70%% of peak past 2x, p99 under %.2f s, baseline \
     collapse -- all hold\n"
    Overload.p99_bound;
  write_bench_json ~file:"BENCH_E16.json" (Overload.to_json r)
