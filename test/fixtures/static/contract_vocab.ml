(* Fixture: a miniature stm_core declaring the site vocabulary
   seam-contract reads, and one substrate helper emitting a site. *)

module Obs = struct
  type site = Begin | Read | Lock_acquire | Validate | Validation | Published | Commit | Abort

  let armed = Atomic.make 0
end

let write_back w =
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.emit m Obs.Published w 0
