(* Exact message counts of single operations, pinned. They hold for every
   seed; a run that measures another value reports a protocol change.
   See README.md for how each row is measured. *)

let table =
  [
    ("msgs_cold_binding", 10);  (* cold_fill: one first-touch call *)
    ("msgs_create", 4);  (* cold_fill: one inert Create *)
    ("msgs_warm_call", 2);  (* warm_zipf: one call with its binding cached *)
    ("msgs_2pc_commit", 26);  (* durable_churn: one 2PC transfer, bindings cached *)
  ]
