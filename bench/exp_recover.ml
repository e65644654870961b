(* E15 — crash recovery swept over the checkpoint period: the
   Legion.Recover scenario at 0.5, 1.0 and 2.0 s, each row gated on
   durability, detection/MTTR and fencing. *)

open Exp_common
module Recover = Legion.Recover

let run () =
  let reports =
    List.map
      (fun checkpoint_period -> Recover.run { Recover.default with checkpoint_period })
      [ 0.5; 1.0; 2.0 ]
  in
  gate (List.concat_map Recover.violations reports);
  write_bench_json ~file:"BENCH_E15.json"
    (Printf.sprintf "{\"experiment\":\"e15\",\"rows\":[%s]}"
       (String.concat "," (List.map Recover.to_json reports)));
  Recover.print_table reports
