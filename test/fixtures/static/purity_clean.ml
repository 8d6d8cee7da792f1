(* Fixture: atomically bodies that only touch transactional state or
   locals created inside the body, plus an allowed deliberate effect. *)

let add t k = Stm.atomically (fun () -> Stm.write t (Stm.read t + k))

let local_scratch t =
  Stm.atomically (fun () ->
      let seen = ref 0 in
      incr seen;
      let buf = Buffer.create 8 in
      Buffer.add_string buf "local";
      Stm.write t !seen;
      Buffer.length buf)

let deliberate t =
  Stm.atomically (fun () ->
      (* tmstatic: allow txn-purity *)
      print_string "debug probe";
      Stm.read t)

(* The descriptor entry point, and a function that takes the
   descriptor, touching only transactional state and locals. *)
let add_tx t k =
  Stm.atomically_tx (fun tx -> Stm.Tx.write tx t (Stm.Tx.read tx t + k))

let count_body t (tx : Stm.tx) =
  let seen = ref 0 in
  incr seen;
  Stm.Tx.write tx t !seen
