(* Host-side instruments: a monotonic nanosecond clock, allocation
   counters, peak RSS, a machine-speed reference, and the benchmark's
   own spans.

   Spans are recorded only while [on] is set (the traced run). Each
   span is one call the benchmark makes into a layer; spans nest by the
   host call stack, which is exact here because the whole simulation
   runs on one thread. They are kept in memory and written out when the
   run ends. *)

let now_ns () = Monotonic_clock.now ()
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let seconds_since t0 = ns_between t0 (now_ns ()) *. 1e-9

let minor_words () = Gc.minor_words ()
let major_words () = (Gc.quick_stat ()).Gc.major_words

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      let line =
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (String.split_on_char '\n' status)
      in
      (match line with
      | None -> nan
      | Some l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0))

(* --- Machine speed ---

   On a shared machine the speed of this process drifts by a quarter or
   more over minutes, for every kind of work at once. To take that drift
   out of host figures, each measured phase is bracketed by a fixed
   reference kernel: random read-modify-writes over a 16 MB table, using
   no allocation and none of the repository's code, so no change to the
   repository can change its cost. [reference_s ()] is the best of five
   passes, in seconds; [nominal_reference_s] is its value on a quiet
   machine. *)

let ref_bits = 21

(* Outside the OCaml heap, so it does not change how the collector paces
   the workload's own heap. *)
let ref_table =
  let a = Bigarray.(Array1.create int c_layout (1 lsl ref_bits)) in
  Bigarray.Array1.fill a 0;
  a

let reference_pass () =
  let a = ref_table and x = ref 0x2545F491 in
  for _ = 1 to 300_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land ((1 lsl ref_bits) - 1) in
    Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a i + 1)
  done

let reference_s () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = now_ns () in
    reference_pass ();
    best := Float.min !best (ns_between t0 (now_ns ()) *. 1e-9)
  done;
  !best

let nominal_reference_s = 0.0045

(* --- Spans --- *)

type span = {
  name : string;
  parent : int;
  start_ns : int64;
  mutable stop_ns : int64;
}

let on = ref false
let max_spans = 400_000
let spans : span array ref = ref [||]
let count = ref 0
let dropped = ref 0
let open_ = ref []  (* stack of open span ids, innermost first *)

let reset () =
  spans := [||];
  count := 0;
  dropped := 0;
  open_ := []

let enter name =
  if not !on then -1
  else if !count >= max_spans then begin
    incr dropped;
    -1
  end
  else begin
    if !count >= Array.length !spans then begin
      let bigger =
        Array.make
          (Stdlib.max 1024 (2 * Array.length !spans))
          { name = ""; parent = -1; start_ns = 0L; stop_ns = 0L }
      in
      Array.blit !spans 0 bigger 0 !count;
      spans := bigger
    end;
    let id = !count in
    let parent = match !open_ with p :: _ -> p | [] -> -1 in
    !spans.(id) <- { name; parent; start_ns = now_ns (); stop_ns = 0L };
    incr count;
    open_ := id :: !open_;
    id
  end

let leave id =
  if id >= 0 then begin
    !spans.(id).stop_ns <- now_ns ();
    match !open_ with _ :: rest -> open_ := rest | [] -> ()
  end

let span name f =
  if not !on then f ()
  else
    let id = enter name in
    match f () with
    | v ->
        leave id;
        v
    | exception e ->
        leave id;
        raise e

(* Per-name totals: (name, count, total ns, self ns). Self time is a
   span's duration minus the part its child spans cover. *)
let summary () =
  let n = !count in
  let self = Array.init n (fun i -> ns_between !spans.(i).start_ns !spans.(i).stop_ns) in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then
      self.(s.parent) <- self.(s.parent) -. ns_between s.start_ns s.stop_ns
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let c, tot, sf =
      Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
    in
    Hashtbl.replace tbl s.name
      (c + 1, tot +. ns_between s.start_ns s.stop_ns, sf +. self.(i))
  done;
  Hashtbl.fold (fun name (c, tot, sf) acc -> (name, c, tot, sf) :: acc) tbl []
  |> List.sort compare

let self_ns_per_span name =
  match List.find_opt (fun (n, _, _, _) -> n = name) (summary ()) with
  | Some (_, c, _, sf) when c > 0 -> sf /. float_of_int c
  | _ -> 0.0

(* One JSON object per line: the spans, then a per-name summary. *)
let write ~file =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text file (fun oc ->
      let t0 = if !count > 0 then !spans.(0).start_ns else 0L in
      for i = 0 to !count - 1 do
        let s = !spans.(i) in
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%.0f,\"end_ns\":%.0f}\n"
          i s.parent s.name (ns_between t0 s.start_ns) (ns_between t0 s.stop_ns)
      done;
      List.iter
        (fun (name, c, tot, sf) ->
          Printf.fprintf oc
            "{\"summary\":%S,\"count\":%d,\"total_ns\":%.0f,\"self_ns\":%.0f}\n"
            name c tot sf)
        (summary ());
      if !dropped > 0 then Printf.fprintf oc "{\"dropped_spans\":%d}\n" !dropped)
