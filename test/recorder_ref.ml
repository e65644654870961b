(* The event ring as it was before the recorder stored flat fields:
   one [Event.t option] per slot, each event a record built at emit
   time. Kept as the oracle for [Legion_obs.Recorder]'s ring. *)

module Event = Legion_obs.Event

type t = {
  clock : unit -> float;
  capacity : int;
  buf : Event.t option array;
  mutable total : int;
  mutable enabled : bool;
}

let create ?(capacity = 65536) ~clock () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  { clock; capacity; buf = Array.make capacity None; total = 0; enabled = true }

let emit t ?host ?site kind =
  if t.enabled then begin
    t.buf.(t.total mod t.capacity) <- Some { Event.time = t.clock (); host; site; kind };
    t.total <- t.total + 1
  end

let total t = t.total
let retained t = Stdlib.min t.total t.capacity
let overwritten t = t.total - retained t

let events_since t mark =
  let first = Stdlib.max mark (t.total - retained t) in
  if first >= t.total then []
  else
    List.init (t.total - first) (fun i ->
        match t.buf.((first + i) mod t.capacity) with
        | Some e -> e
        | None -> assert false)

let events t = events_since t 0

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.total <- 0

let set_enabled t b = t.enabled <- b
