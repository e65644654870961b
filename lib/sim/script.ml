module Prng = Legion_util.Prng
module Sampler = Legion_util.Sampler

let at eng ~time f = ignore (Engine.schedule_at eng ~time f)

let every eng ~period ?start ~until f =
  if period <= 0.0 then invalid_arg "Script.every: period must be positive";
  let first = match start with Some t -> t | None -> Engine.now eng +. period in
  let rec arm time =
    if time <= until then
      ignore
        (Engine.schedule_at eng ~time (fun () ->
             f ();
             arm (time +. period)))
  in
  arm first

let ramp eng ~start ~until ~steps ~values f =
  if steps < 1 then invalid_arg "Script.ramp: steps must be >= 1";
  (match values with [] -> invalid_arg "Script.ramp: no values" | _ -> ());
  let last = List.length values - 1 in
  let step_width = (until -. start) /. float_of_int steps in
  for i = 0 to steps do
    let v = List.nth values (min i last) in
    at eng ~time:(start +. (float_of_int i *. step_width)) (fun () -> f v)
  done

(* Shared open-loop arrival machinery. Arrivals are spaced
   [1 /. rate_now ()] apart and never wait for completions. [respace]
   cancels the pending arrival and re-arms it at
   [max now (last_arrival + 1/rate)] — call it whenever the rate
   changes, so a step up takes effect immediately (instead of after one
   stale old-spacing gap) and a step down never over-fires. *)
let open_loop eng ~until rate_now fire =
  let pending = ref None in
  let last = ref neg_infinity in
  let cancel_pending () =
    match !pending with
    | None -> ()
    | Some h ->
        Engine.cancel h;
        pending := None
  in
  let rec arm time =
    if time <= until && rate_now () > 0.0 then
      pending :=
        Some
          (Engine.schedule_at eng ~time (fun () ->
               pending := None;
               if rate_now () > 0.0 && Engine.now eng <= until then begin
                 last := Engine.now eng;
                 fire ();
                 let r = rate_now () in
                 if r > 0.0 then arm (Engine.now eng +. (1.0 /. r))
               end))
  in
  fun () ->
    cancel_pending ();
    let r = rate_now () in
    if r > 0.0 then arm (Float.max (Engine.now eng) (!last +. (1.0 /. r)))

let load_ramp eng ~start ~until ~steps ~rates fire =
  if steps < 1 then invalid_arg "Script.load_ramp: steps must be >= 1";
  (match rates with [] -> invalid_arg "Script.load_ramp: no rates" | _ -> ());
  List.iter
    (fun r -> if r < 0.0 then invalid_arg "Script.load_ramp: negative rate")
    rates;
  let rate = ref 0.0 in
  let seq = ref 0 in
  let respace =
    open_loop eng ~until
      (fun () -> !rate)
      (fun () ->
        incr seq;
        fire !seq)
  in
  ramp eng ~start ~until ~steps ~values:rates (fun r ->
      rate := r;
      respace ())

(* --- Workload model: Zipf popularity, diurnal ramps, flash crowds. --- *)

type flash = { at : float; width : float; boost : float; site : int option }

type profile = {
  base_rate : float;
  diurnal_amplitude : float;
  diurnal_period : float;
  flashes : flash list;
}

let steady ?(flashes = []) rate =
  if rate <= 0.0 then invalid_arg "Script.steady: rate must be positive";
  { base_rate = rate; diurnal_amplitude = 0.0; diurnal_period = 1.0; flashes }

let check_profile p =
  if p.base_rate <= 0.0 then
    invalid_arg "Script: profile base_rate must be positive";
  if p.diurnal_amplitude < 0.0 || p.diurnal_amplitude >= 1.0 then
    invalid_arg "Script: diurnal_amplitude must be in [0, 1)";
  if p.diurnal_amplitude > 0.0 && p.diurnal_period <= 0.0 then
    invalid_arg "Script: diurnal_period must be positive";
  List.iter
    (fun f ->
      if f.width < 0.0 then invalid_arg "Script: flash width must be >= 0";
      if f.boost < 1.0 then invalid_arg "Script: flash boost must be >= 1")
    p.flashes

let two_pi = 8.0 *. atan 1.0

let rate_at p t =
  let diurnal =
    if p.diurnal_amplitude = 0.0 then 1.0
    else 1.0 +. (p.diurnal_amplitude *. sin (two_pi *. t /. p.diurnal_period))
  in
  let boost =
    List.fold_left
      (fun acc f ->
        if t >= f.at && t < f.at +. f.width then acc *. f.boost else acc)
      1.0 p.flashes
  in
  p.base_rate *. diurnal *. boost

type workload = {
  objects : int;
  zipf_s : float;
  site_mix : float array;
  profile : profile;
}

let drive eng ~prng w ~start ~until fire =
  check_profile w.profile;
  if w.objects <= 0 then invalid_arg "Script.drive: objects must be positive";
  if Array.length w.site_mix = 0 then invalid_arg "Script.drive: empty site_mix";
  Array.iter
    (fun x -> if x < 0.0 then invalid_arg "Script.drive: negative site weight")
    w.site_mix;
  let mix_total = Array.fold_left ( +. ) 0.0 w.site_mix in
  if mix_total <= 0.0 then invalid_arg "Script.drive: site_mix sums to zero";
  let zipf = Sampler.zipf prng ~n:w.objects ~s:w.zipf_s in
  let pick_base_site () =
    let x = Prng.float prng mix_total in
    let acc = ref 0.0 in
    let chosen = ref (Array.length w.site_mix - 1) in
    (try
       Array.iteri
         (fun i wgt ->
           acc := !acc +. wgt;
           if x < !acc then begin
             chosen := i;
             raise Exit
           end)
         w.site_mix
     with Exit -> ());
    !chosen
  in
  (* The flash-attributable *excess* traffic originates from the flash's
     site (a crowd landing somewhere specific); the base traffic keeps
     the ambient mix. *)
  let pick_site now =
    let crowd =
      List.find_opt
        (fun f -> f.site <> None && now >= f.at && now < f.at +. f.width)
        w.profile.flashes
    in
    match crowd with
    | Some { boost; site = Some s; _ } when boost > 1.0 ->
        if Prng.bernoulli prng ~p:((boost -. 1.0) /. boost) then s
        else pick_base_site ()
    | _ -> pick_base_site ()
  in
  let seq = ref 0 in
  let respace =
    open_loop eng ~until
      (fun () -> rate_at w.profile (Engine.now eng))
      (fun () ->
        incr seq;
        let now = Engine.now eng in
        fire ~seq:!seq ~obj:(Sampler.zipf_draw zipf) ~site:(pick_site now))
  in
  (* The rate function is continuous except at flash edges; diurnal
     drift is absorbed by per-arrival re-evaluation. Schedule an
     explicit re-space at every discontinuity so a flash takes effect at
     its instant, not one stale spacing later. *)
  at eng ~time:start (fun () -> respace ());
  List.iter
    (fun f ->
      List.iter
        (fun t -> if t > start && t <= until then at eng ~time:t (fun () -> respace ()))
        [ f.at; f.at +. f.width ])
    w.profile.flashes

let pulse eng ~start ~width ~on ~off =
  at eng ~time:start on;
  at eng ~time:(start +. width) off
