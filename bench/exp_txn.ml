(* E20 — atomic multi-object invocations: the Legion.Txn scenario under
   each of its five fault schedules, gated per row (no partial commits,
   orphaned locks or in-doubt transactions; a Resume after the
   coordinator crash). Each schedule runs twice and the two reports must
   be byte-identical. *)

open Exp_common
module Txn = Legion.Txn

let run () =
  let reports =
    List.map
      (fun schedule ->
        let cfg = { Txn.default with schedule } in
        let a = Txn.run cfg in
        let b = Txn.run cfg in
        if not (String.equal (Txn.to_json a) (Txn.to_json b)) then
          failwith
            (Printf.sprintf "E20/%s: nondeterministic report\n  %s\n  %s"
               (Txn.schedule_name schedule) (Txn.to_json a) (Txn.to_json b));
        gate (Txn.violations a);
        a)
      Txn.schedules
  in
  write_bench_json ~file:"BENCH_E20.json"
    (Printf.sprintf "{\"experiment\":\"e20\",\"seed\":%Ld,\"rows\":[%s]}"
       Txn.default.seed
       (String.concat "," (List.map Txn.to_json reports)));
  Txn.print_table reports
