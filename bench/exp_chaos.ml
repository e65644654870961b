(* E22 — adversarial chaos exploration with exactly-once effects: the
   Legion_chaos.Explorer gate, a seeded schedule fleet plus the
   duplication-heavy dedup on/off pair. Writes BENCH_E22.json, and on a
   failure the minimized schedule (rerun it with
   `legion-sim chaos --replay`). E22_SCHEDULES shrinks the fleet for
   CI smoke runs. *)

open Exp_common
module Explorer = Legion_chaos.Explorer

let run () =
  let cfg =
    match Sys.getenv_opt "E22_SCHEDULES" with
    | Some n -> { Explorer.default with schedules = int_of_string n }
    | None -> Explorer.default
  in
  let r = Explorer.run cfg in
  write_bench_json ~file:"BENCH_E22.json" (Explorer.to_json r);
  Explorer.print r;
  Explorer.write_artifact r;
  gate (Explorer.violations r)
