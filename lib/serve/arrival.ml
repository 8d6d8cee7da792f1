(* A deterministic open-loop arrival clock.

   Each request in a serve run gets a *scheduled arrival time* on the
   virtual nanosecond axis, a pure function of (seed, rate, global
   index).  Purity is the whole point: every domain, every run, every
   domain count derives the same schedule, so the canonical artifacts
   that mention arrivals stay byte-identical while the wall-clock pacing
   that consumes the schedule lives strictly on the measured side.

   Gaps are keyed per index (not drawn from one sequential stream), so
   schedule.(i) is computable without walking 0..i-1 drawing state — the
   cursor below is just a prefix-sum cache. *)

let ns_per_s = 1e9

type kind = Constant | Poisson

let kind_name = function Constant -> "constant" | Poisson -> "poisson"

let kind_of_string = function
  | "constant" -> Some Constant
  | "poisson" -> Some Poisson
  | _ -> None

type t = { a_kind : kind; a_rate : float; a_seed : int; a_period : int }

let make ~kind ~rate ~seed =
  if not (rate > 0.0) || Float.is_nan rate then
    invalid_arg "Arrival.make: rate must be positive";
  {
    a_kind = kind;
    a_rate = rate;
    a_seed = seed;
    a_period = max 1 (int_of_float (Float.round (ns_per_s /. rate)));
  }

let kind t = t.a_kind
let rate t = t.a_rate
let seed t = t.a_seed
let period_ns t = t.a_period

(* The gap between arrival [index - 1] and arrival [index] (arrival 0 is
   at gap(0) past the epoch; constant starts at 0).  Poisson inter-
   arrivals are exponential with mean [1/rate]: u is uniform in (0, 1]
   built from the top 53 bits of a per-index splitmix64 output (same
   keying discipline as [Workload.request]), so the draw never sees 0
   and [-. log u] never overflows.  [g] is scratch: it is reseeded to
   the index's stream, so a cursor reuses one generator. *)
let gap_with g t index =
  match t.a_kind with
  | Constant -> if index = 0 then 0 else t.a_period
  | Poisson ->
      Tm_sim.Prng.reseed g
        (t.a_seed * 0x1000003 lxor ((index + 1) * 0x9E3779B1));
      let u =
        (float_of_int (Tm_sim.Prng.bits g lsr 9) +. 1.0) *. 0x1.0p-53
      in
      max 0 (int_of_float (-.log u *. ns_per_s /. t.a_rate))

let gap t index = gap_with (Tm_sim.Prng.create 0) t index

type cursor = {
  c_of : t;
  c_g : Tm_sim.Prng.t;
  mutable c_index : int;
  mutable c_time : int;
}

let cursor t =
  { c_of = t; c_g = Tm_sim.Prng.create 0; c_index = 0; c_time = 0 }

let next cur =
  let at = cur.c_time + gap_with cur.c_g cur.c_of cur.c_index in
  cur.c_index <- cur.c_index + 1;
  cur.c_time <- at;
  at

let skip cur n =
  for _ = 1 to n do
    ignore (next cur)
  done

let schedule t ~n =
  let cur = cursor t in
  Array.init n (fun _ -> next cur)
