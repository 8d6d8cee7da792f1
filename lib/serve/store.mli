(** A sharded transactional key-value table over [Stm] t-variables.

    Keys are dense ints in [0 .. keys-1], striped round-robin over a
    fixed stripe count: stripe [s] owns the directory of every key [k]
    with [k mod stripes = s].  Each key is one [int Stm.tvar]; all
    operations run inside one transaction under whichever core is
    selected, so a multi-key request is one transaction.  They reach
    the t-variables through the domain's transaction descriptor
    ([Stm.Tx]).

    An optional {e journal} t-variable turns every mutating transaction
    into a conflict on one shared location: the serving path marks the
    journal once per mutating request it commits, which (a) makes
    mutators conflict-universal — the property the chaos
    crash-holding-locks verdicts rely on — and (b) leaves the journal's
    final value equal to the number of admitted mutating requests, a
    deterministic quantity whatever the interleaving. *)

type t

val create : ?stripes:int -> ?journal:bool -> keys:int -> unit -> t
(** [create ~keys ()] builds the table with all values 0.  [stripes]
    defaults to 64 and is clamped to [keys].  [journal] (default false)
    allocates the journal t-variable.  Must run with the serving core
    selected — the t-variables belong to the current algorithm.
    @raise Invalid_argument if [keys < 1]. *)

val keys : t -> int

(** {2 Transactional operations}

    The [O_]-prefixed operations are the request alphabet; {!exec_op}
    runs one {e inside} an enclosing [Stm.atomically] or
    [Stm.atomically_tx] body, so callers compose them freely into
    larger transactions. *)

type op =
  | O_get of int  (** read a key *)
  | O_put of int * int  (** key, value *)
  | O_add of int * int  (** key, delta — read-modify-write *)
  | O_cas of int * int * int  (** key, expected, desired *)

type result =
  | R_value of int  (** [O_get]: the value read *)
  | R_unit  (** [O_put], [O_add] *)
  | R_bool of bool  (** [O_cas]: whether it hit *)

val op_mutates : op -> bool
(** Whether the op writes (a missed [O_cas] still counts: it {e may}
    write, so admission and journal accounting treat it as a mutator). *)

val exec_op : t -> op -> result
(** Run one op inside the current transaction, through the calling
    domain's descriptor ([Stm.Tx.current]).
    @raise Invalid_argument outside a transaction. *)

(** {2 The flat op buffer}

    The serving executors' request representation: one request's ops
    in parallel arrays, reused from request to request, so generating
    and running a request builds no [op] list and no [result]. *)

type tag = B_get | B_put | B_add | B_cas

type buf = {
  mutable b_len : int;  (** ops [0 .. b_len-1] are live *)
  b_tag : tag array;
  b_key : int array;
  b_arg : int array;  (** put value, add delta, cas expected *)
  b_arg2 : int array;  (** cas desired *)
}

val buf_create : capacity:int -> buf
(** An empty buffer for up to [capacity] ops. *)

val buf_set : buf -> int -> tag -> int -> int -> int -> unit
(** [buf_set b i tag key arg arg2] writes op [i] (does not touch
    [b_len]). *)

val buf_op : buf -> int -> op
(** Op [i] as an {!op}. *)

val exec_buf : t -> Tm_stm.Stm.tx -> buf -> unit
(** [exec_buf t tx b], the body of an [Stm.atomically_tx] over [tx]:
    {!exec_op} each of the buffer's ops in order, then {!journal_mark}
    once if any op mutates.  Results are discarded; allocates nothing
    beyond what the core's reads and writes do. *)

val journal_mark : t -> int -> unit
(** In-transaction: bump the journal by [n] requests.  No-op when the
    journal is disabled.
    @raise Invalid_argument outside a transaction when it is enabled. *)

(** {2 Whole-transaction conveniences} *)

val get : t -> int -> int
val put : t -> int -> int -> unit
val cas : t -> int -> expected:int -> desired:int -> bool

val multi : t -> op list -> result list
(** All ops as one transaction (journal-marked once if any mutates). *)

val spec_op : int array -> op -> result
(** The sequential-map specification: apply the op to a plain array
    (index = key).  Differential oracle for {!exec_op}/{!multi} — a
    single-domain run must leave the store byte-equal to folding
    [spec_op] over the same admitted ops in execution order. *)

(** {2 Non-transactional inspection}

    For after the workers are joined — each read stands alone ({!value}
    is its own transaction, {!dump} and {!sum} use the core's direct
    single-location read), so a live dump is not a consistent cut. *)

val value : t -> int -> int
val sum : t -> int
val dump : t -> int array
val journal_value : t -> int
(** 0 when the journal is disabled. *)
