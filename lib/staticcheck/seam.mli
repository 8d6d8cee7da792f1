(** The machine-read seam contract: the site vocabulary parsed from
    [stm_core.ml], the per-algorithm announcement table and core
    dispatch parsed from [stm.ml], and the emission-site scans the
    contract rule cross-checks them against. *)

type announcement = {
  an_algo : string;  (** [Algo.t] constructor, e.g. ["Global_lock"] *)
  an_sites : string list;  (** in announcement order *)
  an_line : int;  (** line of the matching table case in [stm.ml] *)
}

type contract = {
  c_algos : string list;
  c_core_files : (string * string) list;
      (** algo constructor -> core module name, e.g. ["Stm_tl2"] *)
  c_announced : announcement list;
}

val announced : contract -> algo:string -> announcement option

val vocab_of_core : Source.t -> (string list, string) result
(** Parse the [Obs.site] constructors out of [stm_core.ml]. *)

val contract_of_facade : Source.t -> (contract, string) result
(** Parse [Algo.t], the [Algo.sites] table and the [Algo.name] table
    (each case names a core module's [algo_name]) out of [stm.ml].
    Or-patterns announce for every named algorithm. *)

type site = { s_site : string; s_line : int }

val sites : string list -> ?skip_module:string -> Source.t -> site list
(** Every [Obs.X] site constructor in expression position, in source
    order.  [skip_module] skips one named top-level module (the [Algo]
    table itself when scanning [stm.ml]). *)

val helpers : string list -> Source.t -> (string * string list) list
(** The top-level functions of the substrate that emit sites, with
    their sites ([write_back] -> [Locked], [Published]). *)

val helpers_used :
  (string * string list) list -> Source.t -> (string * string list) list
(** The helpers a core refers to, bare or [Stm_core]-qualified. *)
