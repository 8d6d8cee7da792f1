(** Deterministic seeded client populations.

    A workload value is a pure description: the request a given client
    issues at a given index is a function of (seed, client, index) and
    nothing else — every generator draw comes from a splitmix stream
    keyed on that triple, so any multiplexing of clients onto worker
    domains replays the identical request sequence.

    The key space is split into two planes.  {e Even} keys are the kv
    plane: gets, puts and cas land there, targeted through a Zipfian
    rank over the even keys (heaviest rank = key 0), modelling a hot
    set.  {e Odd} keys are the counter plane: multi-key transactions
    transfer between counter keys in deltas that sum to zero, so the
    counter plane's total is an exact conservation invariant any
    correct run must keep at 0. *)

type profile = Read_mostly | Write_heavy | Long_txn | Mixed

val profiles : profile list
val profile_name : profile -> string
(** ["read-mostly"], ["write-heavy"], ["long-txn"], ["mixed"]. *)

val profile_of_string : string -> (profile, string) result
val describe : profile -> string

type request =
  | Single of Store.op  (** one-key request *)
  | Txn of Store.op list  (** multi-key transaction *)

val kinds : string list
(** Request-kind labels in canonical (sorted) order:
    ["cas"; "get"; "put"; "txn"]. *)

val cost : request -> int
(** Admission cost in queue units: 8 for a get, 14 for a put or cas,
    [8 + 6 * length] for a transaction.  See {!Server} for the virtual
    bounded-queue admission model these prices feed. *)

type t

val create : ?hot_s:float -> profile:profile -> seed:int -> keys:int -> unit -> t
(** [hot_s] is the Zipf exponent over the kv plane (default 1.07).
    @raise Invalid_argument if [keys < 4] (each plane needs >= 2 keys). *)

val profile : t -> profile
val seed : t -> int
val keys : t -> int
val zipf : t -> Zipf.t

val request : t -> client:int -> index:int -> request
(** The [index]-th request of [client] — deterministic, stateless:
    {!shape}, then {!fill}, then the buffer decoded to a list. *)

(** {2 Generating in two steps}

    The serving executors generate a request in two steps, so a request
    that admission sheds costs one draw: {!shape} reseeds the caller's
    generator to the request's stream and picks its shape, whose
    admission cost is fixed; {!fill} continues the same stream into a
    flat op buffer.  Neither allocates.  Together they draw exactly the
    values {!request} is built from. *)

type shape =
  | Get
  | Put
  | Cas
  | Short_txn  (** one transfer: 2 ops *)
  | Long_txn  (** 4 reads and 8 transfers: {!max_ops} ops *)

val max_ops : int
(** The longest request, in ops (20): the capacity {!fill} needs. *)

val shape : t -> Tm_sim.Prng.t -> client:int -> index:int -> shape
(** The shape of the [index]-th request of [client]; leaves the
    generator positioned for {!fill}. *)

val fill : t -> Tm_sim.Prng.t -> shape -> Store.buf -> unit
(** Write the ops of the request whose {!shape} was just drawn from
    the generator into the buffer (capacity at least {!max_ops}) and
    set its length. *)

val decode : shape -> Store.buf -> request
(** The filled buffer as a {!request}. *)

val shape_cost : shape -> int
(** {!cost} of every request of the shape: 8, 14, 14, 20, 128. *)

val shape_kind : shape -> int
(** The kind of the shape's requests, as an index into {!kinds}: a
    transaction of either length is ["txn"]. *)

val shape_mutates : shape -> bool
(** Whether the shape's requests write: all but [Get]. *)
