(** seam-guard: every dispatch into the observation seam ([Obs.emit],
    [Obs.fire], [Obs.decide], [Obs.lap], [Obs.now], [Obs.start],
    [Obs.finish])
    must be dominated by an [Atomic.get Obs.armed <> 0] armed-word
    check, preserving the <100 ns/event disarmed discipline of bench
    §P5/P7/P8/P10. *)

val rule : string

val check : Source.t -> Tm_analysis.Finding.t list
(** Error findings at each undominated dispatch line.  Suppressible
    with a [tmstatic: allow seam-guard] comment on the same or the
    preceding line. *)
