(* Fixture: non-rollbackable effects inside atomically bodies —
   irreversible ones are errors, outside-state mutation is a warning. *)

let hits = ref 0
let tbl = Hashtbl.create 8

let bad_print t = Stm.atomically (fun () -> print_endline "boom"; Stm.read t)

let bad_random t = Stm.atomically (fun () -> Stm.write t (Random.int 3))

let bad_spawn t =
  Stm.atomically (fun () ->
      ignore (Domain.spawn (fun () -> ()));
      Stm.read t)

let bad_mutex m t = Stm.atomically (fun () -> Mutex.lock m; Stm.read t)

let warn_incr t = Stm.atomically (fun () -> incr hits; Stm.read t)

let warn_hashtbl t =
  Stm.atomically (fun () ->
      Hashtbl.replace tbl 1 2;
      Stm.read t)

(* The descriptor entry point, and a function that takes the
   descriptor: both are transaction bodies. *)
let bad_print_tx t =
  Stm.atomically_tx (fun tx -> print_endline "boom"; Stm.Tx.read tx t)

let warn_incr_body t (tx : Stm.tx) =
  incr hits;
  Stm.Tx.read tx t
