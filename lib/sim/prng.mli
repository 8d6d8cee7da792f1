(** A deterministic splittable PRNG (splitmix64).

    All simulation randomness flows through explicit generator values so
    every experiment is reproducible from its seed.  The state is kept
    unboxed: {!bits}, {!int} and {!bool} allocate nothing, so a hot loop
    can draw from one generator, {!reseed}ing it instead of creating a
    new one per keyed stream. *)

type t

val create : int -> t

val reseed : t -> int -> unit
(** [reseed g seed] puts [g] in the state of [create seed]: the same
    stream, without allocating a generator. *)

val copy : t -> t

val next : t -> int64
(** The next raw 64-bit output. *)

val bits : t -> int
(** The top 62 bits of {!next}, as a non-negative int. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]: {!bits} [mod bound].
    [bound > 0]. *)

val bool : t -> bool
val pick : t -> 'a list -> 'a

val split : t -> t
(** An independent generator derived from (and advancing) [g]. *)
