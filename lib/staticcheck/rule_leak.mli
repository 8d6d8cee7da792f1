(** armed-leak: a top-level definition that subscribes to the
    observation seam ([Chaos]/[Blame]/[Blame_graph]/[Stm_probe].install,
    [Trace.start], [Obs.subscribe]) must also mention the matching
    release ([uninstall], [Trace.stop], [Obs.unsubscribe] or
    [Stm.recover] — application or bare ident both count).
    Suppressible with [tmstatic: allow armed-leak]. *)

val rule : string

val check : Source.t -> Tm_analysis.Finding.t list
