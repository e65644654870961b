(* Event records are pooled: firing or cancelling an event recycles its
   record for the next [schedule]. Handles therefore carry the
   generation they were issued under — a recycled record fails the
   generation check, which keeps "cancel after fire" a no-op without
   keeping every fired record alive. A queued record knows its engine
   and its slot in the engine's heap, so [cancel] (which has no engine
   argument) takes it out of the queue at once. *)

type event = {
  mutable time : float;
  mutable seq : int;  (* tie-break: same-instant events fire in scheduling order *)
  mutable action : unit -> unit;
  mutable slot : int;  (* index in [eng.heap] while queued *)
  mutable gen : int;  (* bumped each time the record is recycled *)
  eng : t;
}

(* [heap.(0 .. len - 1)] is a binary min-heap over (time, seq) and holds
   exactly the live events. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;
  mutable heap : event array;
  mutable len : int;
  mutable pool : event array;  (* free-record stack *)
  mutable pool_len : int;
}

type handle = { ev : event; hgen : int }

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    fired = 0;
    heap = [||];
    len = 0;
    pool = [||];
    pool_len = 0;
  }

let now t = t.clock

(* --- the heap --- *)

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let place t ev i =
  t.heap.(i) <- ev;
  ev.slot <- i

(* Move [ev] from the hole at [i] towards the root past every parent it
   precedes. *)
let rec sift_up t ev i =
  let parent = (i - 1) / 2 in
  if i > 0 && before ev t.heap.(parent) then begin
    place t t.heap.(parent) i;
    sift_up t ev parent
  end
  else place t ev i

(* Move [ev] from the hole at [i] towards the leaves past every child
   that precedes it. *)
let rec sift_down t ev i =
  let l = (2 * i) + 1 in
  if l >= t.len then place t ev i
  else begin
    let c = if l + 1 < t.len && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    if before t.heap.(c) ev then begin
      place t t.heap.(c) i;
      sift_down t ev c
    end
    else place t ev i
  end

(* Double a full array; [ev] fills the fresh slots, which are never
   read. *)
let grow arr ev =
  let len = Array.length arr in
  let bigger = Array.make (Int.max 64 (2 * len)) ev in
  Array.blit arr 0 bigger 0 len;
  bigger

let push t ev =
  if t.len = Array.length t.heap then t.heap <- grow t.heap ev;
  t.len <- t.len + 1;
  sift_up t ev (t.len - 1)

(* Take out the event at slot [i]; the last event fills the hole, and
   may have to move either way from it. *)
let remove t i =
  let last = t.len - 1 in
  t.len <- last;
  if i < last then begin
    let moved = t.heap.(last) in
    if i > 0 && before moved t.heap.((i - 1) / 2) then sift_up t moved i
    else sift_down t moved i
  end

(* --- records --- *)

let no_action () = ()

let alloc t ~time ~action =
  if not (Float.is_finite time) then
    invalid_arg "Engine: event time is not finite";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let ev =
    if t.pool_len > 0 then begin
      t.pool_len <- t.pool_len - 1;
      let ev = t.pool.(t.pool_len) in
      ev.time <- time;
      ev.seq <- seq;
      ev.action <- action;
      ev
    end
    else { time; seq; action; slot = 0; gen = 0; eng = t }
  in
  push t ev;
  ev

let recycle t ev =
  ev.gen <- ev.gen + 1;
  ev.action <- no_action;
  (* drop the closure *)
  if t.pool_len = Array.length t.pool then t.pool <- grow t.pool ev;
  t.pool.(t.pool_len) <- ev;
  t.pool_len <- t.pool_len + 1

let schedule_at t ~time action =
  let time = Float.max time t.clock in
  let ev = alloc t ~time ~action in
  { ev; hgen = ev.gen }

let schedule t ~delay action =
  schedule_at t ~time:(t.clock +. Float.max 0.0 delay) action

let post_at t ~time action =
  let time = Float.max time t.clock in
  ignore (alloc t ~time ~action)

let post t ~delay action = post_at t ~time:(t.clock +. Float.max 0.0 delay) action

let cancel h =
  let ev = h.ev in
  if ev.gen = h.hgen then begin
    remove ev.eng ev.slot;
    recycle ev.eng ev
  end

let is_cancelled h = h.ev.gen <> h.hgen

let step t =
  t.len > 0
  && begin
       let ev = t.heap.(0) in
       remove t 0;
       t.clock <- ev.time;
       t.fired <- t.fired + 1;
       let action = ev.action in
       (* Recycle before running: the action may schedule, reusing this
          very record under a fresh generation. *)
       recycle t ev;
       action ();
       true
     end

let run ?until ?max_events t =
  let budget = ref (match max_events with None -> -1 | Some n -> n) in
  let continue () =
    !budget <> 0 && t.len > 0
    && match until with Some limit when t.heap.(0).time > limit -> false | _ -> true
  in
  while continue () do
    ignore (step t);
    if !budget > 0 then decr budget
  done

let pending t = t.len
let events_fired t = t.fired
