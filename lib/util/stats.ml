type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable mn : float;
  mutable mx : float;
  (* Sorted cache is invalidated by every [add]. *)
  mutable sorted : float array option;
}

let create () =
  {
    samples = Array.make 16 0.0;
    len = 0;
    sum = 0.0;
    sum_sq = 0.0;
    mn = infinity;
    mx = neg_infinity;
    sorted = None;
  }

let ensure_capacity t =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * Array.length t.samples) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end

let add t x =
  ensure_capacity t;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x;
  t.sorted <- None

let add_list t xs = List.iter (add t) xs

let count t = t.len
let is_empty t = t.len = 0
let total t = t.sum
let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len

let variance t =
  if t.len < 2 then 0.0
  else
    let n = float_of_int t.len in
    let m = t.sum /. n in
    Float.max 0.0 ((t.sum_sq /. n) -. (m *. m))

let min t =
  if t.len = 0 then invalid_arg "Stats.min: empty";
  t.mn

let max t =
  if t.len = 0 then invalid_arg "Stats.max: empty";
  t.mx

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
      let s = Array.sub t.samples 0 t.len in
      Array.sort compare s;
      t.sorted <- Some s;
      s

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: out of range";
  let s = sorted t in
  let n = Array.length s in
  if n = 1 then s.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then s.(lo)
    else
      let frac = rank -. float_of_int lo in
      (s.(lo) *. (1.0 -. frac)) +. (s.(hi) *. frac)

let median t = percentile t 50.0

let merge a b =
  let t = create () in
  for i = 0 to a.len - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.len - 1 do
    add t b.samples.(i)
  done;
  t

let clear t =
  t.len <- 0;
  t.sum <- 0.0;
  t.sum_sq <- 0.0;
  t.mn <- infinity;
  t.mx <- neg_infinity;
  t.sorted <- None

let pp ppf t =
  if t.len = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" t.len
      (mean t) (median t) (percentile t 99.0) t.mx

module Histogram = struct
  type h = { bounds : float array; cells : int array; mutable tot : int }

  let create ~buckets =
    let n = Array.length buckets in
    if n = 0 then invalid_arg "Histogram.create: empty bounds";
    for i = 1 to n - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Histogram.create: bounds not strictly ascending"
    done;
    { bounds = Array.copy buckets; cells = Array.make (n + 1) 0; tot = 0 }

  let linear ~lo ~width ~count =
    if count <= 0 then invalid_arg "Histogram.linear: count must be positive";
    if width <= 0.0 then invalid_arg "Histogram.linear: width must be positive";
    create ~buckets:(Array.init count (fun i -> lo +. (width *. float_of_int (i + 1))))

  let bounds h = Array.copy h.bounds

  let add h x =
    let n = Array.length h.bounds in
    let rec find i = if i = n then n else if x <= h.bounds.(i) then i else find (i + 1) in
    let i = find 0 in
    h.cells.(i) <- h.cells.(i) + 1;
    h.tot <- h.tot + 1

  let counts h =
    let n = Array.length h.bounds in
    List.init (n + 1) (fun i ->
        if i = n then (None, h.cells.(i)) else (Some h.bounds.(i), h.cells.(i)))

  let total h = h.tot

  let merge a b =
    if a.bounds <> b.bounds then
      invalid_arg "Histogram.merge: mismatched buckets";
    {
      bounds = Array.copy a.bounds;
      cells = Array.init (Array.length a.cells) (fun i -> a.cells.(i) + b.cells.(i));
      tot = a.tot + b.tot;
    }

  let percentile h p =
    if h.tot = 0 then invalid_arg "Histogram.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: out of range";
    (* Nearest-rank: the k-th smallest sample with
       k = ceil(p/100 * n), clamped to [1, n]. We only know which bucket
       that sample fell in, so report the bucket's upper bound
       (infinity for the overflow bucket). *)
    let n = h.tot in
    let k =
      Stdlib.min n
        (Stdlib.max 1
           (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))
    in
    let nb = Array.length h.bounds in
    let rec walk i cum =
      if i = nb then infinity
      else
        let cum = cum + h.cells.(i) in
        if cum >= k then h.bounds.(i) else walk (i + 1) cum
    in
    walk 0 0

  let pp ppf h =
    let pp_cell ppf (bound, c) =
      match bound with
      | Some b -> Format.fprintf ppf "<=%.3g:%d" b c
      | None -> Format.fprintf ppf ">:%d" c
    in
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_cell)
      (counts h)
end
