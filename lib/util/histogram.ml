(* Log-bucketed histogram; with [exact] we also keep raw samples (as a
   growable int array) so percentiles are exact rather than bucketed. *)

let bucket_count = 256

type t = {
  buckets : int array;
  mutable samples : int array; (* raw samples when exact *)
  mutable n : int;
  mutable sum : float;
  mutable min_v : int;
  mutable max_v : int;
  exact : bool;
  mutable sorted : bool;
}

let create ?(exact = true) () =
  {
    buckets = Array.make bucket_count 0;
    samples = (if exact then Array.make 1024 0 else [||]);
    n = 0;
    sum = 0.;
    min_v = max_int;
    max_v = 0;
    exact;
    sorted = true;
  }

(* Bucket index: 4 sub-buckets per power of two up to 2^62. *)
let msb_position v =
  let rec walk acc v = if v <= 1 then acc else walk (acc + 1) (v lsr 1) in
  walk 0 v

let bucket_of v =
  if v <= 0 then 0
  else
    let msb = msb_position v in
    let sub = if msb >= 2 then (v lsr (msb - 2)) land 3 else 0 in
    min (bucket_count - 1) ((msb * 4) + sub)

let grow t =
  let cap = Array.length t.samples in
  let bigger = Array.make (cap * 2) 0 in
  Array.blit t.samples 0 bigger 0 cap;
  t.samples <- bigger

let add t v =
  let v = max 0 v in
  t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
  if t.exact then begin
    if t.n >= Array.length t.samples then grow t;
    t.samples.(t.n) <- v;
    t.sorted <- false
  end;
  t.n <- t.n + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n

let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let min_value t = if t.n = 0 then 0 else t.min_v

let max_value t = t.max_v

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.n in
    Array.sort Int.compare live;
    Array.blit live 0 t.samples 0 t.n;
    t.sorted <- true
  end

let percentile_exact t p =
  ensure_sorted t;
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.n)) - 1 in
  t.samples.(max 0 (min (t.n - 1) rank))

(* Bucketed fallback: return the upper edge of the bucket containing the
   requested rank. *)
let bucket_upper idx =
  let msb = idx / 4 and sub = idx mod 4 in
  if msb < 2 then (1 lsl msb) + sub
  else (1 lsl msb) + ((sub + 1) * (1 lsl (msb - 2))) - 1

let percentile_bucketed t p =
  let target = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
  let rec walk i acc =
    if i >= bucket_count then t.max_v
    else
      let acc = acc + t.buckets.(i) in
      if acc >= target then min t.max_v (bucket_upper i) else walk (i + 1) acc
  in
  walk 0 0

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: out of range";
  (* Empty histograms answer 0 everywhere: min_v is still its max_int
     sentinel, and leaking it renders as garbage in tables. *)
  if t.n = 0 then 0
  else if p = 0. then t.min_v
  else if t.exact then percentile_exact t p
  else percentile_bucketed t p

let cdf t ~points =
  if t.n = 0 then []
  else
    List.init points (fun i ->
        let p = float_of_int (i + 1) /. float_of_int points *. 100. in
        (percentile t p, p /. 100.))

let merge a b =
  let m = create ~exact:(a.exact && b.exact) () in
  let pour src =
    if src.exact then
      for i = 0 to src.n - 1 do
        add m src.samples.(i)
      done
    else
      Array.iteri
        (fun i c ->
          for _ = 1 to c do
            add m (bucket_upper i)
          done)
        src.buckets
  in
  pour a;
  pour b;
  m
