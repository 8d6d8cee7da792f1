module Stm = Tm_stm.Stm

type t = {
  st_keys : int;
  st_stripes : int;
  (* st_dirs.(s).(i) holds key [i * stripes + s]: one key directory
     per stripe. *)
  st_dirs : int Stm.tvar array array;
  st_journal : int Stm.tvar option;
}

let create ?(stripes = 64) ?(journal = false) ~keys () =
  if keys < 1 then invalid_arg "Store.create: keys < 1";
  let stripes = max 1 (min stripes keys) in
  let dir s =
    let sz = (keys - s + stripes - 1) / stripes in
    Array.init sz (fun _ -> Stm.tvar 0)
  in
  {
    st_keys = keys;
    st_stripes = stripes;
    st_dirs = Array.init stripes dir;
    st_journal = (if journal then Some (Stm.tvar 0) else None);
  }

let keys t = t.st_keys

let slot t k =
  if k < 0 || k >= t.st_keys then invalid_arg "Store: key out of range";
  t.st_dirs.(k mod t.st_stripes).(k / t.st_stripes)

type op = O_get of int | O_put of int * int | O_add of int * int | O_cas of int * int * int
type result = R_value of int | R_unit | R_bool of bool

let op_mutates = function
  | O_get _ -> false
  | O_put _ | O_add _ | O_cas _ -> true

(* [op] inside the transaction running on [tx]. *)
let exec_in t tx = function
  | O_get k -> R_value (Stm.Tx.read tx (slot t k))
  | O_put (k, v) ->
      Stm.Tx.write tx (slot t k) v;
      R_unit
  | O_add (k, d) ->
      let tv = slot t k in
      Stm.Tx.write tx tv (Stm.Tx.read tx tv + d);
      R_unit
  | O_cas (k, expected, desired) ->
      let tv = slot t k in
      if Stm.Tx.read tx tv = expected then begin
        Stm.Tx.write tx tv desired;
        R_bool true
      end
      else R_bool false

let exec_op t op = exec_in t (Stm.Tx.current ()) op

type tag = B_get | B_put | B_add | B_cas

type buf = {
  mutable b_len : int;
  b_tag : tag array;
  b_key : int array;
  b_arg : int array;
  b_arg2 : int array;
}

let buf_create ~capacity =
  {
    b_len = 0;
    b_tag = Array.make capacity B_get;
    b_key = Array.make capacity 0;
    b_arg = Array.make capacity 0;
    b_arg2 = Array.make capacity 0;
  }

let buf_set b i tag k a a2 =
  b.b_tag.(i) <- tag;
  b.b_key.(i) <- k;
  b.b_arg.(i) <- a;
  b.b_arg2.(i) <- a2

let buf_op b i =
  let k = b.b_key.(i) and a = b.b_arg.(i) in
  match b.b_tag.(i) with
  | B_get -> O_get k
  | B_put -> O_put (k, a)
  | B_add -> O_add (k, a)
  | B_cas -> O_cas (k, a, b.b_arg2.(i))

let mark_in t tx n =
  match t.st_journal with
  | None -> ()
  | Some j -> Stm.Tx.write tx j (Stm.Tx.read tx j + n)

let journal_mark t n = mark_in t (Stm.Tx.current ()) n

(* [exec_op] over the buffer, results discarded: no [op] or [result]
   block is built.  The descriptor parameter makes the function a
   transaction body for tmstatic's txn-purity rule. *)
let exec_buf t (tx : Stm.tx) b =
  let mutated = ref false in
  for i = 0 to b.b_len - 1 do
    let tv = slot t b.b_key.(i) in
    match b.b_tag.(i) with
    | B_get -> ignore (Stm.Tx.read tx tv)
    | B_put ->
        Stm.Tx.write tx tv b.b_arg.(i);
        mutated := true
    | B_add ->
        Stm.Tx.write tx tv (Stm.Tx.read tx tv + b.b_arg.(i));
        mutated := true
    | B_cas ->
        if Stm.Tx.read tx tv = b.b_arg.(i) then Stm.Tx.write tx tv b.b_arg2.(i);
        mutated := true
  done;
  if !mutated then mark_in t tx 1

let get t k = Stm.atomically_tx (fun tx -> Stm.Tx.read tx (slot t k))

let put t k v =
  Stm.atomically_tx (fun tx ->
      Stm.Tx.write tx (slot t k) v;
      mark_in t tx 1)

let cas t k ~expected ~desired =
  Stm.atomically_tx (fun tx ->
      mark_in t tx 1;
      match exec_in t tx (O_cas (k, expected, desired)) with
      | R_bool b -> b
      | _ -> assert false)

let spec_op m = function
  | O_get k -> R_value m.(k)
  | O_put (k, v) ->
      m.(k) <- v;
      R_unit
  | O_add (k, d) ->
      m.(k) <- m.(k) + d;
      R_unit
  | O_cas (k, expected, desired) ->
      if m.(k) = expected then begin
        m.(k) <- desired;
        R_bool true
      end
      else R_bool false

let multi t ops =
  Stm.atomically_tx (fun tx ->
      let rs = List.map (exec_in t tx) ops in
      if List.exists op_mutates ops then mark_in t tx 1;
      rs)

let value t k = get t k
let dump t = Array.init t.st_keys (fun k -> Stm.read (slot t k))
let sum t = Array.fold_left ( + ) 0 (dump t)

let journal_value t =
  match t.st_journal with
  | None -> 0
  | Some j -> Stm.atomically_tx (fun tx -> Stm.Tx.read tx j)
