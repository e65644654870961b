(** Fixed-width text tables: the one renderer the experiment harness and
    the CLI share. *)

val print : title:string -> header:string list -> string list list -> unit
(** Print [title], then a boxed table with one column per [header]
    entry, each padded to its widest cell, on stdout. Every row must
    have as many cells as [header]. *)
