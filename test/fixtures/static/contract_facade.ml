(* Fixture: a miniature Stm facade with one announced algorithm and a
   retry loop emitting the facade's lifecycle sites. *)

module Algo = struct
  type t = Mini

  let name = function Mini -> Stm_mini.algo_name

  let sites = function
    | Mini -> [ Obs.Begin; Obs.Read; Obs.Validation; Obs.Published; Obs.Commit; Obs.Abort ]
end

let atomically f =
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.emit m Obs.Begin (-1) 0;
  let committed = f () in
  if m <> 0 then Obs.emit m (if committed then Obs.Commit else Obs.Abort) (-1) 0
