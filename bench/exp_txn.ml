(* E20 — atomic multi-object invocations: the Legion.Txn scenario under
   each of its five fault schedules, gated per row (no partial commits,
   orphaned locks or in-doubt transactions; a Resume after the
   coordinator crash; a byte-identical re-run). *)

open Exp_common
module Txn = Legion.Txn

let run () =
  let reports =
    List.map
      (fun schedule ->
        let r = Txn.run { Txn.default with schedule } in
        gate (Txn.violations r);
        r)
      Txn.schedules
  in
  write_bench_json ~file:"BENCH_E20.json"
    (Printf.sprintf "{\"experiment\":\"e20\",\"seed\":%Ld,\"rows\":[%s]}"
       Txn.default.seed
       (String.concat "," (List.map Txn.to_json reports)));
  Txn.print_table reports
