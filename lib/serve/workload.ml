module Prng = Tm_sim.Prng

type profile = Read_mostly | Write_heavy | Long_txn | Mixed

let profiles = [ Read_mostly; Write_heavy; Long_txn; Mixed ]

let profile_name = function
  | Read_mostly -> "read-mostly"
  | Write_heavy -> "write-heavy"
  | Long_txn -> "long-txn"
  | Mixed -> "mixed"

let profile_of_string s =
  match
    List.find_opt (fun p -> String.equal (profile_name p) s) profiles
  with
  | Some p -> Ok p
  | None ->
      Error
        (Fmt.str "unknown profile %S (expected %s)" s
           (String.concat ", " (List.map profile_name profiles)))

let describe = function
  | Read_mostly -> "90% get / 7% put / 3% transfer txn on the hot set"
  | Write_heavy -> "25% get / 50% put / 15% cas / 10% transfer txn"
  | Long_txn -> "30% get / 10% put / 60% long (20-op) transactions"
  | Mixed -> "45% get / 25% put / 10% cas / 10% txn / 10% long txn"

type request = Single of Store.op | Txn of Store.op list

let kinds = [ "cas"; "get"; "put"; "txn" ]

let cost = function
  | Single (Store.O_get _) -> 8
  | Single _ -> 14
  | Txn ops -> 8 + (6 * List.length ops)

type t = {
  w_profile : profile;
  w_seed : int;
  w_keys : int;
  w_kv_n : int;  (** even keys: the Zipf-targeted kv plane *)
  w_cnt_n : int;  (** odd keys: the conserving counter plane *)
  w_zipf : Zipf.t;
}

let create ?(hot_s = 1.07) ~profile ~seed ~keys () =
  if keys < 4 then invalid_arg "Workload.create: keys < 4";
  let kv_n = (keys + 1) / 2 in
  {
    w_profile = profile;
    w_seed = seed;
    w_keys = keys;
    w_kv_n = kv_n;
    w_cnt_n = keys / 2;
    w_zipf = Zipf.create ~s:hot_s ~n:kv_n ();
  }

let profile t = t.w_profile
let seed t = t.w_seed
let keys t = t.w_keys
let zipf t = t.w_zipf

(* Zipf rank r on the kv plane is key 2r; counter slot u is key 2u+1. *)
let kv_key t g =
  let r = Zipf.sample t.w_zipf g in
  assert (r < t.w_kv_n);
  2 * r

let cnt_key u = (2 * u) + 1

(* {2 Shape, then fill} *)

type shape = Get | Put | Cas | Short_txn | Long_txn

let max_ops = 20

let shape_cost = function
  | Get -> 8
  | Put | Cas -> 14
  | Short_txn -> 8 + (6 * 2)
  | Long_txn -> 8 + (6 * max_ops)

(* Index into [kinds]. *)
let shape_kind = function
  | Cas -> 0
  | Get -> 1
  | Put -> 2
  | Short_txn | Long_txn -> 3

let shape_mutates = function
  | Get -> false
  | Put | Cas | Short_txn | Long_txn -> true

let shape t g ~client ~index =
  Prng.reseed g
    (t.w_seed * 0x1000003
    lxor (client * 0x9E3779B1)
    lxor ((index + 1) * 0x85EBCA6B));
  let p = Prng.int g 100 in
  match t.w_profile with
  | Read_mostly -> if p < 90 then Get else if p < 97 then Put else Short_txn
  | Write_heavy ->
      if p < 25 then Get
      else if p < 75 then Put
      else if p < 90 then Cas
      else Short_txn
  | Long_txn -> if p < 30 then Get else if p < 40 then Put else Long_txn
  | Mixed ->
      if p < 45 then Get
      else if p < 70 then Put
      else if p < 80 then Cas
      else if p < 90 then Short_txn
      else Long_txn

(* One conserving transfer into slots [i] and [i+1]: two distinct
   counter keys, deltas +-d. *)
let transfer t g b i =
  let a = Prng.int g t.w_cnt_n in
  let c = (a + 1 + Prng.int g (t.w_cnt_n - 1)) mod t.w_cnt_n in
  let d = 1 + Prng.int g 8 in
  Store.buf_set b i Store.B_add (cnt_key a) (-d) 0;
  Store.buf_set b (i + 1) Store.B_add (cnt_key c) d 0

(* The draw order is part of the stream (pinned by the goldens in
   test_serve): a put draws its value before its key; a cas its
   desired, then expected, then key; a long transaction its 4 reads,
   then 8 transfers, stored from the back of the buffer. *)
let fill t g shape b =
  match shape with
  | Get ->
      Store.buf_set b 0 Store.B_get (kv_key t g) 0 0;
      b.Store.b_len <- 1
  | Put ->
      let v = 1 + Prng.int g 1000 in
      Store.buf_set b 0 Store.B_put (kv_key t g) v 0;
      b.Store.b_len <- 1
  | Cas ->
      let desired = 1 + Prng.int g 1000 in
      let expected = Prng.int g 8 in
      Store.buf_set b 0 Store.B_cas (kv_key t g) expected desired;
      b.Store.b_len <- 1
  | Short_txn ->
      transfer t g b 0;
      b.Store.b_len <- 2
  | Long_txn ->
      for i = 0 to 3 do
        Store.buf_set b i Store.B_get (kv_key t g) 0 0
      done;
      for j = 1 to 8 do
        transfer t g b (max_ops - (2 * j))
      done;
      b.Store.b_len <- max_ops

let decode shape b =
  match shape with
  | Get | Put | Cas -> Single (Store.buf_op b 0)
  | Short_txn | Long_txn -> Txn (List.init b.Store.b_len (Store.buf_op b))

let request t ~client ~index =
  let g = Prng.create 0 and b = Store.buf_create ~capacity:max_ops in
  let s = shape t g ~client ~index in
  fill t g s b;
  decode s b
