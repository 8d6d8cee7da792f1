(* seam-contract: cross-check each core's reachable sites against its
   [Algo.sites] announcement, in both directions.

   - Unannounced site: the core, a substrate helper it calls, or the
     facade's retry loop emits a site the core's announcement does not
     list — telemetry labels, chaos plans and blame attribution built
     on the announcement would silently miss it.
   - Missing site: the announcement lists a site nothing reachable
     emits — dynamic tests keyed on the announcement can never
     observe it.
   - Duplicate announcement.

   The rule takes announcements at face value ([stm.ml] is the
   contract; the cores are the implementation under test). *)

let rule = "seam-contract"

let finding ~subject ~line message =
  Tm_analysis.Finding.v ~rule ~severity:Tm_analysis.Finding.Error ~subject
    ~location:(Tm_analysis.Finding.At_line line) message

let rec dups = function
  | [] -> []
  | x :: rest -> if List.mem x rest then x :: dups rest else dups rest

let check ~vocab ~contract ~substrate ~(facade_src : Source.t) cores =
  let facade = Seam.sites vocab ~skip_module:"Algo" facade_src in
  let helpers = Seam.helpers vocab substrate in
  List.concat_map
    (fun (algo, (core : Source.t)) ->
      match Seam.announced contract ~algo with
      | None ->
          [
            finding ~subject:facade_src.path ~line:1
              (Fmt.str "Algo.sites has no case covering %s" algo);
          ]
      | Some an ->
          let an_finding msg = finding ~subject:facade_src.path ~line:an.an_line msg in
          let unannounced subject (s : Seam.site) via =
            if List.mem s.s_site an.an_sites then []
            else
              [
                finding ~subject ~line:s.s_line
                  (Fmt.str "emits Obs.%s%s, which Algo.sites does not announce for %s"
                     s.s_site via algo);
              ]
          in
          let own = Seam.sites vocab core in
          let used = Seam.helpers_used helpers core in
          let via_helpers =
            List.concat_map
              (fun (h, ss) -> List.map (fun s -> (h, s)) ss)
              used
          in
          let reachable =
            List.map (fun (s : Seam.site) -> s.s_site) (own @ facade)
            @ List.map snd via_helpers
          in
          List.map
            (fun c -> an_finding (Fmt.str "Algo.sites announces Obs.%s twice for %s" c algo))
            (dups an.an_sites)
          @ List.concat_map (fun s -> unannounced core.path s "") own
          @ List.concat_map (fun s -> unannounced facade_src.path s "") facade
          @ List.concat_map
              (fun (h, s) ->
                unannounced core.path { Seam.s_site = s; s_line = 1 }
                  (Fmt.str " (through %s)" h))
              via_helpers
          @ List.filter_map
              (fun c ->
                if List.mem c reachable then None
                else
                  Some
                    (an_finding
                       (Fmt.str
                          "Algo.sites announces Obs.%s for %s, but %s has no \
                           emission site for it"
                          c algo core.path)))
              an.an_sites)
    cores
