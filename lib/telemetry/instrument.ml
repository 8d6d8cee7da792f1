(* Contention-free instruments.

   Counters and histograms keep one cell per writing domain: a write is
   a plain read-modify-write of the writer's own cell — no atomic RMW,
   no cache line shared with another writer — and a read sums the
   cells.  A domain takes a writer slot (a small integer) on its first
   write and hands it back when it exits, so at most [max_writers] (the
   runtime's domain limit) slots are ever in use; a slot's cell
   outlives its domain and the slot's next owner keeps adding to it,
   the slot mutex ordering the old owner's last writes before the new
   owner's first.  Reads race with writes by design: they see each
   cell's latest value or an earlier one, never a torn one (immediate
   ints), and are exact once the writers are joined. *)

let max_writers = 128
let slots_mu = Mutex.create ()
let free_slots = ref (List.init max_writers Fun.id)

let slot_key =
  Domain.DLS.new_key (fun () ->
      let s =
        Mutex.protect slots_mu (fun () ->
            match !free_slots with
            | s :: rest ->
                free_slots := rest;
                s
            | [] -> failwith "Instrument: more live domains than writer slots")
      in
      Domain.at_exit (fun () ->
          Mutex.protect slots_mu (fun () -> free_slots := s :: !free_slots));
      s)

(* ---- counters ---- *)

type ccell = { mutable n : int }

(* Marks a slot whose domain never wrote; never written itself. *)
let no_ccell = { n = 0 }

type counter = ccell array

let counter () = Array.make max_writers no_ccell

let add c k =
  let s = Domain.DLS.get slot_key in
  let cell = Array.unsafe_get c s in
  if cell != no_ccell then cell.n <- cell.n + k else c.(s) <- { n = k }

let incr c = add c 1
let value c = Array.fold_left (fun acc cell -> acc + cell.n) 0 c

(* ---- gauges ---- *)

type gauge = int Atomic.t

let gauge ?(init = 0) () = Atomic.make init
let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

(* floor (log2 v) for v > 0 (0 for v <= 0), by halving the search
   range: six tests whatever the magnitude. *)
let log2_floor v =
  let v = ref v and m = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; m := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; m := !m + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; m := !m + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; m := !m + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; m := !m + 2 end;
  if !v lsr 1 <> 0 then m := !m + 1;
  !m

(* ---- histograms ----

   Log2 buckets, same rule as [Tm_sim.Metrics]: bucket 0 counts value 0
   (and negatives), bucket [k >= 1] counts [2^(k-1), 2^k), the last
   bucket overflows.  32 buckets cover nanosecond latencies up to
   ~2^30 ns (about a second) before overflowing. *)

let hist_buckets = 32

(* Integer comparisons throughout the write path: [Stdlib.min]/[max]
   are polymorphic and cost a C call each. *)
let bucket_of v =
  if v <= 0 then 0
  else
    let k = log2_floor v + 1 in
    if k < hist_buckets then k else hist_buckets - 1

let bucket_upper k =
  if k <= 0 then 0
  else if k >= hist_buckets - 1 then max_int
  else (1 lsl k) - 1

(* A histogram cell: [cb] holds the buckets (its sample count is their
   sum), [cs] the sum, [cm] the maximum.  Log2 and hires histograms
   differ only in their bucket count and rule. *)
type hcell = { cb : int array; mutable cs : int; mutable cm : int }

let no_hcell = { cb = [||]; cs = 0; cm = 0 }

type histogram = hcell array

let histogram () = Array.make max_writers no_hcell

(* The calling domain's cell, created on its first write. *)
let hcell h nb =
  let s = Domain.DLS.get slot_key in
  let c = Array.unsafe_get h s in
  if c != no_hcell then c
  else begin
    let c = { cb = Array.make nb 0; cs = 0; cm = 0 } in
    h.(s) <- c;
    c
  end

let record h nb k v =
  let c = hcell h nb in
  Array.unsafe_set c.cb k (Array.unsafe_get c.cb k + 1);
  if v > 0 then c.cs <- c.cs + v;
  if v > c.cm then c.cm <- v

let observe h v = record h hist_buckets (bucket_of v) v

let absorb h ~buckets ~sum ~max_sample =
  let c = hcell h hist_buckets in
  let n = Array.length buckets in
  for k = 0 to n - 1 do
    if buckets.(k) > 0 then begin
      (* Source bucket [k] has the same [2^(k-1), 2^k) range as ours —
         except the source's own last bucket, which is an overflow
         bucket: its samples are only known to be >= 2^(n-2), so they
         must land in our overflow bucket too, not in the same-index
         range bucket (which would under-read them). *)
      let kb =
        if k = n - 1 && n < hist_buckets then hist_buckets - 1
        else if k < hist_buckets then k
        else hist_buckets - 1
      in
      c.cb.(kb) <- c.cb.(kb) + buckets.(k)
    end
  done;
  if sum > 0 then c.cs <- c.cs + sum;
  if max_sample > c.cm then c.cm <- max_sample

type hsnap = {
  buckets : int array;
  count : int;
  sum : int;
  max_sample : int;
}

let snapshot h nb =
  let buckets = Array.make nb 0 in
  let count = ref 0 and sum = ref 0 and max_sample = ref 0 in
  Array.iter
    (fun c ->
      if c != no_hcell then begin
        for k = 0 to nb - 1 do
          let n = c.cb.(k) in
          buckets.(k) <- buckets.(k) + n;
          count := !count + n
        done;
        sum := !sum + c.cs;
        max_sample := max !max_sample c.cm
      end)
    h;
  { buckets; count = !count; sum = !sum; max_sample = !max_sample }

let hist_snapshot h = snapshot h hist_buckets

let quantile snap q =
  if snap.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int snap.count)) in
    let rank = if rank < 1 then 1 else rank in
    let rec go k cum =
      if k >= hist_buckets - 1 then snap.max_sample
      else
        let cum = cum + snap.buckets.(k) in
        if cum >= rank then min (bucket_upper k) snap.max_sample
        else go (k + 1) cum
    in
    go 0 0
  end

let hsnap_mean snap =
  if snap.count = 0 then 0.0
  else float_of_int snap.sum /. float_of_int snap.count

let pp_hsnap ppf snap =
  if snap.count = 0 then Fmt.pf ppf "(empty)"
  else
    Fmt.pf ppf "p50 %d  p90 %d  p99 %d  max %d  (n=%d, mean %.1f)"
      (quantile snap 0.5) (quantile snap 0.9) (quantile snap 0.99)
      snap.max_sample snap.count (hsnap_mean snap)

(* ---- high-resolution histograms ----

   The log2 buckets above cap the relative quantile error at a factor
   of 2 — fine for p50/p99 dashboards, useless for the p99.9/p99.99
   tail the open-loop latency recorder gates on.  The hires variant
   splits every log2 decade into [hires_sub] linear sub-buckets, so the
   relative error of any reported bound is at most 1/[hires_sub]
   (12.5%), while keeping the same wait-free sharded write path. *)

let hires_sub_bits = 3
let hires_sub = 1 lsl hires_sub_bits

(* Majors [hires_sub_bits .. hires_log_max - 1] carry [hires_sub]
   sub-buckets each; values below [hires_sub] are exact; everything at
   or above [2^hires_log_max] (~18 minutes in ns) overflows. *)
let hires_log_max = 40

let hires_buckets =
  hires_sub + ((hires_log_max - hires_sub_bits) * hires_sub) + 1

let hires_bucket_of v =
  if v <= 0 then 0
  else if v < hires_sub then v
  else
    let m = log2_floor v in
    if m >= hires_log_max then hires_buckets - 1
    else (hires_sub * (m - hires_sub_bits)) + (v lsr (m - hires_sub_bits))

let hires_bucket_upper k =
  if k <= 0 then 0
  else if k < hires_sub then k
  else if k >= hires_buckets - 1 then max_int
  else
    let m = (k lsr hires_sub_bits) + hires_sub_bits - 1 in
    let s = k - (hires_sub * (m - hires_sub_bits)) in
    ((s + 1) lsl (m - hires_sub_bits)) - 1

type hires = histogram

let hires = histogram
let hires_observe h v = record h hires_buckets (hires_bucket_of v) v
let hires_snapshot h = snapshot h hires_buckets

let hires_quantile snap q =
  if snap.count = 0 then 0
  else begin
    let n = Array.length snap.buckets in
    let rank = int_of_float (ceil (q *. float_of_int snap.count)) in
    let rank = if rank < 1 then 1 else rank in
    let rec go k cum =
      if k >= n - 1 then snap.max_sample
      else
        let cum = cum + snap.buckets.(k) in
        if cum >= rank then min (hires_bucket_upper k) snap.max_sample
        else go (k + 1) cum
    in
    go 0 0
  end

let pp_hires_snap ppf snap =
  if snap.count = 0 then Fmt.pf ppf "(empty)"
  else
    Fmt.pf ppf
      "p50 %d  p90 %d  p99 %d  p99.9 %d  p99.99 %d  max %d  (n=%d, mean %.1f)"
      (hires_quantile snap 0.5) (hires_quantile snap 0.9)
      (hires_quantile snap 0.99)
      (hires_quantile snap 0.999)
      (hires_quantile snap 0.9999)
      snap.max_sample snap.count (hsnap_mean snap)
