(** seam-contract: both-direction cross-check of each core's reachable
    observation sites against its [Stm.Algo.sites] announcement. *)

val rule : string

val check :
  vocab:string list ->
  contract:Seam.contract ->
  substrate:Source.t ->
  facade_src:Source.t ->
  (string * Source.t) list ->
  Tm_analysis.Finding.t list
(** [check ~vocab ~contract ~substrate ~facade_src cores] with [cores] a
    list of (Algo constructor, parsed core source).  A core reaches its
    own sites, the sites of the [substrate] helpers it calls and the
    facade's retry-loop sites.  Error findings for: unannounced sites
    (located at the emitting line), announced sites nothing reaches and
    duplicate announcements (located at the table case in the
    facade). *)
