module Ustats = Legion_util.Stats

type t = {
  clock : unit -> float;
  capacity : int;
  buf : Event.t option array;
  mutable total : int;
  mutable enabled : bool;
  lat : (string, Ustats.Histogram.h) Hashtbl.t;
}

(* Log-spaced 10µs .. 10s: spans the network's three latency tiers
   (5µs/0.5ms/40ms one-way) through multi-hop resolution chains. *)
let latency_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

let create ?(capacity = 65536) ~clock () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  {
    clock;
    capacity;
    buf = Array.make capacity None;
    total = 0;
    enabled = true;
    lat = Hashtbl.create 16;
  }

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
let enabled t = t.enabled

let observe t ~component x =
  let h =
    match Hashtbl.find_opt t.lat component with
    | Some h -> h
    | None ->
        let h = Ustats.Histogram.create ~buckets:latency_buckets in
        Hashtbl.add t.lat component h;
        h
  in
  Ustats.Histogram.add h x

let latency t ~component = Hashtbl.find_opt t.lat component

let latencies t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.lat []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
