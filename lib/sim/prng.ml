(* The splitmix64 state lives unboxed in an 8-byte buffer: [next] reads
   and writes it as a raw int64, so a draw allocates nothing once [next]
   and [mix] are inlined into the caller. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] seed_state seed = mix (Int64.of_int ((seed * 2) + 1))

let of_state s =
  let g = Bytes.create 8 in
  set64 g 0 s;
  g

let create seed = of_state (seed_state seed)

let reseed g seed = set64 g 0 (seed_state seed)
let copy = Bytes.copy

let[@inline] next g =
  let s = Int64.add (get64 g 0) golden_gamma in
  set64 g 0 s;
  mix s

(* Keep 62 bits so the value fits OCaml's 63-bit native int. *)
let bits g = Int64.to_int (Int64.shift_right_logical (next g) 2)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  bits g mod bound

let bool g = Int64.logand (next g) 1L = 1L

let pick g xs =
  match xs with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth xs (int g (List.length xs))

let split g = of_state (mix (next g))
