(* Summary arithmetic of the benchmark: medians and quartiles over
   repetitions, quantiles and SLO attainment read off bucketed latency
   histograms.  Pure functions, unit-tested in test/. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty";
  let a = sorted xs in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the benchmark's own spread figures agree with the ones
   computed over its outputs. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld = 0 then invalid_arg "Stats.quartiles: empty";
  let a = sorted xs in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

(* {2 Bucketed histograms}

   A histogram is its bucket counts plus the inclusive upper bound of
   each bucket; bucket [k] covers [upper (k-1) + 1 .. upper k] (bucket 0
   starts at 0).  The last bucket overflows: its samples are only known
   to be at most [max_sample]. *)

let quantile ~upper ~buckets ~max_sample q =
  let n = Array.length buckets in
  let count = Array.fold_left ( + ) 0 buckets in
  if count = 0 then 0.0
  else begin
    let rank = Float.max 1.0 (Float.ceil (q *. float_of_int count)) in
    let rec go k cum =
      let c = buckets.(k) in
      if k = n - 1 || float_of_int (cum + c) >= rank then (k, cum)
      else go (k + 1) (cum + c)
    in
    let k, before = go 0 0 in
    let hi = if k = n - 1 then max_sample else min (upper k) max_sample in
    let lo = if k = 0 then 0 else min (upper (k - 1) + 1) hi in
    (* Linear interpolation by rank inside the bucket: the [i]-th of the
       bucket's [c] samples sits at [lo + (hi - lo) * i / c]. *)
    let c = buckets.(k) in
    if c = 0 then float_of_int hi
    else
      float_of_int lo
      +. (float_of_int (hi - lo) *. (rank -. float_of_int before)
         /. float_of_int c)
  end

(* Share of [offered] requests that completed within [limit]: a bucket
   counts only if its whole range is within the limit (its upper bound
   is), so the figure never over-reads; refused requests are in
   [offered] but in no bucket, so they count as misses. *)
let slo_attain ~upper ~buckets ~limit ~offered =
  if offered <= 0 then invalid_arg "Stats.slo_attain: offered <= 0";
  let n = Array.length buckets in
  let within = ref 0 in
  for k = 0 to n - 2 do
    if upper k <= limit then within := !within + buckets.(k)
  done;
  float_of_int !within /. float_of_int offered
